"""Smoke tests for the installed console scripts (subprocess level)."""

import subprocess
import sys


def run_module(module, *args):
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True, text=True, timeout=120)


class TestCloudmonEntryPoint:
    def test_table(self):
        result = run_module("repro.cli", "table")
        assert result.returncode == 0
        assert "proj_administrator" in result.stdout

    def test_check(self):
        result = run_module("repro.cli", "check")
        assert result.returncode == 0

    def test_campaign(self):
        result = run_module("repro.cli", "campaign")
        assert result.returncode == 0
        assert "kill rate: 3/3 (100%)" in result.stdout

    def test_error_paths_exit_nonzero(self):
        result = run_module("repro.cli", "contracts", "PATCH(volume)")
        assert result.returncode == 2
        assert "error" in result.stderr


class TestUml2djangoEntryPoint:
    def test_full_invocation(self, tmp_path):
        from repro.core import cinder_behavior_model, cinder_resource_model
        from repro.uml import write_xmi_file

        xmi_path = str(tmp_path / "models.xmi")
        write_xmi_file(xmi_path, cinder_resource_model(),
                       cinder_behavior_model())
        result = run_module("repro.core.codegen.cli", "cmonitor", xmi_path,
                            "--output", str(tmp_path))
        assert result.returncode == 0
        assert (tmp_path / "cmonitor" / "views.py").exists()
        assert "wrote cmonitor/views.py" in result.stdout

    def test_missing_input_fails(self, tmp_path):
        result = run_module("repro.core.codegen.cli", "cm",
                            "/nonexistent.xmi", "--output", str(tmp_path))
        assert result.returncode == 1
