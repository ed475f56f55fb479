"""Every digest gate in ``scripts/gates.py`` holds against ``gates.json``.

The first test runs each gate's seeded campaign and compares what it
returns with the recorded entry.  The rest pin the registry's own
contract with a toy gate and a temporary baseline: a broken invariant
records nothing, and a missing entry or a changed, missing or extra key
fails the check.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_gates():
    spec = importlib.util.spec_from_file_location(
        "gates", ROOT / "scripts" / "gates.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gates = _load_gates()


@pytest.mark.parametrize("name", sorted(gates.GATES))
def test_gate_holds_and_matches_its_recorded_values(name):
    assert gates.diff(name, gates.run(name), gates.load()) == []


def test_every_recorded_entry_names_a_gate():
    assert sorted(gates.load()) == sorted(gates.GATES)


@pytest.fixture
def toy(monkeypatch, tmp_path):
    """A toy gate named ``toy`` over a temporary baseline; set its
    return value (or exception) through the returned dict."""
    state = {"baseline": tmp_path / "gates.json", "raise": None,
             "value": {"digest": "abc", "count": 10}}

    def toy_gate():
        if state["raise"] is not None:
            raise state["raise"]
        return state["value"]

    monkeypatch.setattr(gates, "BASELINE", str(state["baseline"]))
    monkeypatch.setitem(gates.GATES, "toy", toy_gate)
    return state


def _record(baseline, entries):
    baseline.write_text(json.dumps(entries, indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")


@pytest.mark.parametrize("failure", [
    gates.GateFailure("parity broken"),
    AssertionError("a campaign's own invariant broke"),
])
def test_update_records_nothing_when_an_invariant_breaks(toy, failure):
    _record(toy["baseline"], {"toy": {"digest": "old", "count": 10}})
    before = toy["baseline"].read_bytes()
    toy["raise"] = failure
    assert gates.main(["--update", "--only", "toy"]) != 0
    assert toy["baseline"].read_bytes() == before


def test_a_missing_entry_fails(toy):
    _record(toy["baseline"], {})
    assert gates.main(["--only", "toy"]) != 0
    toy["baseline"].unlink()
    assert gates.main(["--only", "toy"]) != 0


@pytest.mark.parametrize("recorded", [
    {"digest": "abd", "count": 10},                  # changed value
    {"digest": "abc", "count": 10.0},                # changed type
    {"digest": "abc"},                               # key not recorded
    {"digest": "abc", "count": 10, "extra": True},   # key not returned
], ids=["changed", "int-vs-float", "returned-extra", "recorded-extra"])
def test_any_key_difference_fails(toy, recorded):
    _record(toy["baseline"], {"toy": recorded})
    assert gates.main(["--only", "toy"]) != 0
    assert gates.diff("toy", gates.run("toy"), gates.load())


def test_update_then_check_passes_and_keeps_other_entries(toy):
    _record(toy["baseline"], {"other": {"kept": [1, 2]},
                              "toy": {"digest": "old"}})
    assert gates.main(["--update", "--only", "toy"]) == 0
    assert gates.main(["--only", "toy"]) == 0
    recorded = json.loads(toy["baseline"].read_text(encoding="utf-8"))
    assert recorded == {"other": {"kept": [1, 2]},
                        "toy": {"digest": "abc", "count": 10}}
    text = toy["baseline"].read_text(encoding="utf-8")
    assert text == json.dumps(recorded, indent=2, sort_keys=True) + "\n"
