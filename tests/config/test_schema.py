"""The schema-versioned config document: strictness, canonical form,
round-trip losslessness, and validation."""

import json

import pytest

from repro.config import (
    CONFIG_VERSION,
    AlarmSpec,
    CloudSection,
    FleetSection,
    MonitorConfig,
    MonitorSection,
    SLOSpec,
    SinkSpec,
    WindowSpec,
    config_digest,
    dump,
    dumps,
    load,
    loads,
    migrate,
    parse_text,
)
from repro.errors import ConfigError


def sample_config():
    return MonitorConfig(
        cloud=CloudSection(volume_quota=7),
        monitor=MonitorSection(enforcing=False, fanout=2, probe_cache=True),
        fleet=FleetSection(shards=4, router_seed=3),
        slos=(SLOSpec(
            name="availability", objective=0.999,
            good={"kind": "counter", "name": "good_total"},
            total={"kind": "counter", "name": "all_total"}),),
        windows=(WindowSpec(label="fast", seconds=300.0, threshold=14.4),),
        alarms=(AlarmSpec(name="page", slo="availability",
                          critical_breaches=1),),
        sinks=(SinkSpec(kind="memory", name="buffer"),),
    )


class TestCanonicalForm:
    def test_to_dict_emits_every_section(self):
        data = MonitorConfig().to_dict()
        assert data["config_version"] == CONFIG_VERSION
        assert set(data) == {
            "config_version", "cloud", "scenario", "monitor",
            "observability", "resilience", "deadline", "admission",
            "degradation", "fleet", "slos", "windows", "alarms", "sinks"}

    def test_from_dict_inverts_to_dict(self):
        config = sample_config()
        assert MonitorConfig.from_dict(config.to_dict()) == config

    def test_partial_document_fills_defaults(self):
        config = MonitorConfig.from_dict({
            "config_version": 1, "monitor": {"enforcing": False}})
        assert config.monitor.enforcing is False
        assert config.monitor.probe_planning is True
        assert config.fleet.shards == 1

    def test_digest_is_stable_and_content_addressed(self):
        config = sample_config()
        assert config_digest(config) == config_digest(sample_config())
        other = MonitorConfig()
        assert config_digest(config) != config_digest(other)


class TestStrictParsing:
    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            MonitorConfig.from_dict({"config_version": 1, "monitors": {}})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            MonitorConfig.from_dict({
                "config_version": 1, "monitor": {"enforcig": True}})

    def test_missing_version_rejected(self):
        with pytest.raises(ConfigError):
            MonitorConfig.from_dict({"monitor": {}})

    def test_future_version_rejected(self):
        with pytest.raises(ConfigError):
            MonitorConfig.from_dict({"config_version": 2})

    def test_type_errors_are_config_errors(self):
        with pytest.raises(ConfigError):
            MonitorConfig.from_dict({
                "config_version": 1, "monitor": {"fanout": "two"}})
        with pytest.raises(ConfigError):
            MonitorConfig.from_dict({
                "config_version": 1, "monitor": {"enforcing": 1}})


class TestSerialisation:
    def test_json_round_trip(self):
        config = sample_config()
        assert loads(dumps(config, format="json")) == config

    def test_yaml_round_trip(self):
        config = sample_config()
        assert loads(dumps(config, format="yaml")) == config

    def test_parse_text_accepts_both(self):
        config = sample_config()
        assert MonitorConfig.from_dict(
            parse_text(dumps(config, format="json"))) == config
        assert MonitorConfig.from_dict(
            parse_text(dumps(config, format="yaml"))) == config

    def test_file_round_trip_by_extension(self, tmp_path):
        config = sample_config()
        for name in ("monitor.yaml", "monitor.json"):
            path = tmp_path / name
            dump(config, str(path))
            assert load(str(path)) == config


class TestValidation:
    def test_defaults_validate_clean(self):
        assert MonitorConfig().validate() == []
        assert sample_config().validate() == []

    def test_unknown_scenario_flagged(self):
        config = MonitorConfig.from_dict({
            "config_version": 1, "scenario": {"name": "swift"}})
        assert any("swift" in problem for problem in config.validate())

    def test_alarm_on_unknown_slo_flagged(self):
        config = MonitorConfig.from_dict({
            "config_version": 1,
            "alarms": [{"name": "page", "slo": "no-such-slo"}]})
        assert any("no-such-slo" in problem
                   for problem in config.validate())

    def test_jsonl_sink_requires_path(self):
        config = MonitorConfig.from_dict({
            "config_version": 1, "sinks": [{"kind": "jsonl"}]})
        assert config.validate() != []

    def test_bad_objective_flagged(self):
        config = MonitorConfig.from_dict({
            "config_version": 1,
            "slos": [{"name": "s", "objective": 1.5,
                      "good": {"kind": "counter", "name": "g"},
                      "total": {"kind": "counter", "name": "t"}}]})
        assert config.validate() != []

    def test_require_valid_raises(self):
        config = MonitorConfig.from_dict({
            "config_version": 1, "fleet": {"shards": 0}})
        with pytest.raises(ConfigError):
            config.require_valid()

    def test_compiled_is_rejected_where_it_cannot_build(self):
        # Every contract compiles when it is generated, so the old
        # ``scenario.compiled`` switch is an unknown key in every scenario
        # and in legacy documents alike.
        for name in ("cinder", "nova", "keystone"):
            with pytest.raises(ConfigError, match="compiled"):
                MonitorConfig.from_dict({
                    "config_version": 1,
                    "scenario": {"name": name, "compiled": False}})
        with pytest.raises(ConfigError,
                           match="unknown legacy config key 'compiled'"):
            migrate({"scenario": "cinder", "compiled": True})


class TestDigestDocument:
    def test_canonical_json_is_sorted_and_newline_terminated(self):
        from repro.config.schema import config_to_json

        text = config_to_json(MonitorConfig())
        assert text.endswith("\n")
        data = json.loads(text)
        assert list(data) == sorted(data)
