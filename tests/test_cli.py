"""Tests for the cloudmon command line."""

import pytest

from repro.cli import main


class TestTable:
    def test_prints_table(self, capsys):
        assert main(["table"]) == 0
        out = capsys.readouterr().out
        assert "proj_administrator" in out
        assert "DELETE" in out


class TestContracts:
    def test_all_contracts(self, capsys):
        assert main(["contracts"]) == 0
        out = capsys.readouterr().out
        assert "PreCondition(DELETE(" in out
        assert "PreCondition(POST(" in out
        assert "PostCondition(GET(" in out

    def test_single_trigger(self, capsys):
        assert main(["contracts", "DELETE(volume)"]) == 0
        out = capsys.readouterr().out
        assert "PreCondition(DELETE(" in out
        assert "PreCondition(POST(" not in out

    def test_bad_trigger_reports_error(self, capsys):
        assert main(["contracts", "PATCH(volume)"]) == 2
        assert "error" in capsys.readouterr().err


class TestDemo:
    def test_audit_demo_clean(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "violations: 0" in out
        assert "coverage: 100%" in out

    def test_enforcing_demo_clean(self, capsys):
        assert main(["demo", "--enforcing"]) == 0
        out = capsys.readouterr().out
        assert "pre-blocked" in out

    def test_extended_demo(self, capsys):
        assert main(["demo", "--extended"]) == 0
        out = capsys.readouterr().out
        assert "post-at-quota" in out


class TestCampaign:
    def test_paper_campaign(self, capsys):
        assert main(["campaign"]) == 0
        out = capsys.readouterr().out
        assert "kill rate: 3/3 (100%)" in out
        assert "baseline clean: yes" in out

    def test_extended_campaign(self, capsys):
        assert main(["campaign", "--extended"]) == 0
        out = capsys.readouterr().out
        assert "kill rate: 6/6 (100%)" in out


class TestDot:
    def test_resources_dot(self, capsys):
        assert main(["dot", "resources"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "Cinder"')
        assert '"volume"' in out

    def test_behavior_dot(self, capsys):
        assert main(["dot", "behavior"]) == 0
        out = capsys.readouterr().out
        assert "DELETE(volume)" in out

    def test_bad_model_choice(self):
        with pytest.raises(SystemExit):
            main(["dot", "nothing"])


class TestSlice:
    def test_slice_volume(self, capsys):
        assert main(["slice", "volume"]) == 0
        out = capsys.readouterr().out
        assert "sliced models:" in out
        assert "PreCondition(DELETE(" in out

    def test_slice_with_method_filter(self, capsys):
        assert main(["slice", "volume", "--methods", "DELETE"]) == 0
        out = capsys.readouterr().out
        assert "3 transitions" in out

    def test_slice_unknown_resource(self, capsys):
        assert main(["slice", "ghost"]) == 2
        assert "error" in capsys.readouterr().err


class TestLocalize:
    def test_localize_from_log(self, capsys, tmp_path):
        from repro.cloud import paper_mutants
        from repro.core import write_log
        from repro.config import build_from_config
        from repro.validation import TestOracle, campaign_config

        cloud, monitor = build_from_config(campaign_config())
        mutant = paper_mutants()[0]
        mutant.apply(cloud)
        TestOracle(cloud, monitor).run()
        logfile = str(tmp_path / "audit.jsonl")
        write_log(monitor.log, logfile)

        assert main(["localize", logfile]) == 0
        out = capsys.readouterr().out
        assert "volume:delete" in out

    def test_localize_clean_log(self, capsys, tmp_path):
        from repro.core import write_log
        from repro.config import build_from_config
        from repro.validation import TestOracle, campaign_config

        cloud, monitor = build_from_config(campaign_config())
        TestOracle(cloud, monitor).run()
        logfile = str(tmp_path / "audit.jsonl")
        write_log(monitor.log, logfile)
        assert main(["localize", logfile]) == 0
        assert "nothing to localize" in capsys.readouterr().out


class TestCheck:
    def test_builtin_models_pass(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "well-formed" in out

    def test_release2_models_pass(self, capsys):
        assert main(["check", "--release2"]) == 0


class TestReport:
    def test_report_to_stdout(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "# Cloud monitor validation report" in out
        assert "Kill rate: **3/3**" in out
        assert "Coverage: **100%**" in out

    def test_report_to_file(self, capsys, tmp_path):
        target = str(tmp_path / "report.md")
        assert main(["report", "--output", target]) == 0
        with open(target, encoding="utf-8") as handle:
            content = handle.read()
        assert "## Mutation campaign" in content
        assert f"wrote {target}" in capsys.readouterr().out


class TestEvents:
    def test_text_output_one_line_per_event(self, capsys):
        assert main(["events", "--deterministic"]) == 0
        out = capsys.readouterr().out
        assert "monitor_request" in out
        assert "events shown" in out

    def test_json_document_with_filters(self, capsys):
        assert main(["events", "--deterministic", "--json",
                     "--event", "monitor_request", "--limit", "2"]) == 0
        import json

        document = json.loads(capsys.readouterr().out)
        assert len(document["events"]) == 2
        assert all(event["event"] == "monitor_request"
                   for event in document["events"])
        assert document["emitted"] >= document["retained"]

    def test_limit_above_the_match_count_keeps_every_match(self, capsys):
        import json

        assert main(["events", "--deterministic", "--json"]) == 0
        everything = json.loads(capsys.readouterr().out)["events"]
        assert main(["events", "--deterministic", "--json",
                     "--limit", str(len(everything) + 2)]) == 0
        assert json.loads(capsys.readouterr().out)["events"] == everything

    def test_negative_limit_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["events", "--deterministic", "--limit", "-1"])
        assert exc.value.code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_verdict_filter(self, capsys):
        assert main(["events", "--deterministic", "--json",
                     "--verdict", "valid"]) == 0
        import json

        document = json.loads(capsys.readouterr().out)
        assert document["events"]
        assert all(event["verdict"] == "valid"
                   for event in document["events"])

    def test_jsonl_export_to_file(self, capsys, tmp_path):
        import json

        target = str(tmp_path / "events.jsonl")
        assert main(["events", "--deterministic",
                     "--event", "monitor_request",
                     "--output", target]) == 0
        assert f"wrote" in capsys.readouterr().out
        with open(target, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert records
        assert all(record["event"] == "monitor_request"
                   for record in records)

    def test_deterministic_json_is_byte_stable(self, capsys):
        def run():
            assert main(["events", "--deterministic", "--json"]) == 0
            return capsys.readouterr().out

        assert run() == run()


class TestSlo:
    def test_table_output_lists_objectives(self, capsys):
        assert main(["slo", "--deterministic"]) == 0
        out = capsys.readouterr().out
        assert "overall: ok" in out
        assert "verdict-availability" in out
        assert "stage-latency" in out
        assert "indeterminate-rate" in out

    def test_json_report_shape(self, capsys):
        import json

        assert main(["slo", "--deterministic", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["overall"] == "ok"
        assert {entry["name"] for entry in report["slos"]} \
            == {"verdict-availability", "stage-latency",
                "indeterminate-rate", "shed-rate"}
        for entry in report["slos"]:
            assert [window["window"] for window in entry["windows"]] \
                == ["fast", "slow"]

    def test_deterministic_output_is_byte_stable(self, capsys):
        def run():
            assert main(["slo", "--deterministic", "--json"]) == 0
            return capsys.readouterr().out

        assert run() == run()


class TestChaosBreakerLine:
    def test_chaos_reports_the_breaker_lifecycle(self, capsys):
        assert main(["chaos", "--requests", "12"]) == 0
        out = capsys.readouterr().out
        assert "breaker lifecycle:    closed -> open -> half-open " \
               "-> closed" in out


class TestFleet:
    def test_parity_mode_matches_serial(self, capsys):
        assert main(["fleet", "--shards", "3", "--requests", "16"]) == 0
        out = capsys.readouterr().out
        assert "verdict parity vs serial:  OK" in out

    def test_parity_json_summary(self, capsys):
        import json

        assert main(["fleet", "--shards", "2", "--fanout", "4",
                     "--requests", "16", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["parity"] is True
        assert summary["serial_digest"] == summary["fleet_digest"]
        assert summary["verdicts"] == 16

    def test_bench_mode_appends_trajectory(self, capsys, tmp_path):
        import json

        trajectory = tmp_path / "BENCH_scaling.json"
        assert main(["fleet", "--bench", "--shards", "2",
                     "--requests", "16", "--latency", "0.001",
                     "--trajectory", str(trajectory)]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        recorded = json.loads(trajectory.read_text())
        assert len(recorded["entries"]) == 1
        assert recorded["entries"][0]["peak_shards"] == 2


class TestOverload:
    def test_campaign_summary(self, capsys):
        assert main(["overload"]) == 0
        out = capsys.readouterr().out
        assert "parity (generous controls): OK" in out
        assert "requests shed:" in out
        assert "final mode:                 full" in out

    def test_json_summary(self, capsys):
        import json

        assert main(["overload", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["parity"]["parity"] is True
        assert summary["burst"]["ok"] is True
        assert summary["burst"]["modes_seen"] == [
            "full", "cached_only", "audit_only"]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
