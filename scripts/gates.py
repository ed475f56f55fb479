#!/usr/bin/env python
"""The digest gates: seeded campaigns whose verdicts are pinned by value.

Each gate runs a deterministic campaign (seeded workloads and fault
programs, ManualClock-driven time), asserts its invariants, and returns
the values it pins; ``scripts/gates.json`` records them, one entry per
gate.  A gate passes when its invariants hold and its return value,
after a JSON round trip, equals the recorded entry key for key: a
missing entry fails, and so does a changed, missing or extra key.  The
runs are deterministic, so probe rates compare exactly too -- an
improvement is a reviewed ``--update``, not a printed hint.

``tests/test_gates.py`` runs every gate in the tier-1 suite.  By hand,
from the repository root::

    PYTHONPATH=src python scripts/gates.py [--only NAME ...] [--update]

``--update`` re-records the named gates (all by default) and writes
nothing unless every named gate's invariants hold.
"""

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "scripts", "gates.json")

#: The chaos workload every verdict-parity gate replays.
COUNT = 40
SEED = 7
SHARDS = 4
FANOUT = 4
#: Real seconds every chaos-host request sleeps on the fan-out legs:
#: slow enough that the adaptive scheduler overlaps their probes.
FANOUT_LATENCY = 0.002

#: The cached probe rate must stay strictly below the historical
#: uncached budget -- the cache is pointless (and suspect) otherwise.
CACHED_CEILING = 7.20


class GateFailure(AssertionError):
    """A gate's invariant does not hold."""


def require(condition, message: str) -> None:
    if not condition:
        raise GateFailure(message)


def _require_parity(report, label: str, what: str) -> None:
    """*report* is a baseline-vs-other verdict comparison (ChaosReport)."""
    require(report.parity, f"{what} changed the {label} verdict stream "
            f"(first divergence at row {report.first_divergence()})")


def _require_stream_parity(report, what: str) -> None:
    """*report* compares verdicts, metrics and events (overload legs)."""
    require(report.parity, f"{what} changed the calm workload (equal "
            f"verdicts/metrics/events: {report.verdict_parity}/"
            f"{report.metrics_parity}/{report.events_parity})")


# -- the gates -------------------------------------------------------------

def probe_budget():
    """GET probes per monitored request, planning on, cache off and on."""
    from repro.validation import measure_probe_rate

    uncached = measure_probe_rate(count=60, seed=42)
    cached = measure_probe_rate(count=60, seed=42, probe_cache=True)
    require(cached["probes_per_request"] < CACHED_CEILING,
            f"cached probe rate {cached['probes_per_request']:.4f} is not "
            f"below the {CACHED_CEILING:.2f} ceiling")
    return {
        "probes_per_request": uncached["probes_per_request"],
        "cached_probes_per_request": cached["probes_per_request"],
        "cache": cached["cache"],
    }


def chaos():
    """Recoverable faults change no verdict; a dead substrate is
    indeterminate throughout."""
    from repro.validation import (assert_indeterminate_degradation,
                                  run_chaos_campaign)

    report = run_chaos_campaign(count=COUNT, seed=SEED)
    _require_parity(report, "serial", "recoverable faults")
    dead = assert_indeterminate_degradation(count=10, seed=SEED)
    return {
        "verdict_digest": report.baseline.digest(),
        "verdict_count": len(report.baseline.rows),
        "dead_substrate_indeterminate": dead.indeterminate,
    }


def cache_parity():
    """The probe cache changes no verdict, and probes less."""
    from repro.validation import (recoverable_program,
                                  run_cache_parity_campaign)

    clean = run_cache_parity_campaign(count=COUNT, seed=SEED)
    faulted = run_cache_parity_campaign(count=COUNT, seed=SEED,
                                        fault_factory=recoverable_program)
    _require_parity(clean, "clean", "the probe cache")
    _require_parity(faulted, "fail-once", "the probe cache")
    require(clean.faulted.probe_count < clean.baseline.probe_count,
            f"the cached leg issued {clean.faulted.probe_count} probes, "
            f"not fewer than the uncached {clean.baseline.probe_count}; "
            "is the cache wired in?")
    return {
        "clean_digest": clean.baseline.digest(),
        "faulted_digest": faulted.baseline.digest(),
        "verdict_count": len(clean.baseline.rows),
    }


def fanout():
    """Fan-out and the sharded fleet change no verdict, clean or
    faulted; the fan-out legs run behind a slow substrate, so their
    probes really overlap."""
    from repro.validation import (ChaosReport, flaky_program,
                                  recoverable_program, run_fleet_leg,
                                  run_leg, unrecoverable_program)

    serial = {}
    for label, faults in (("clean", None),
                          ("fail-once", recoverable_program),
                          ("flaky", flaky_program)):
        reference = run_leg(COUNT, SEED, faults)
        legs = {
            "fanout": run_leg(COUNT, SEED, faults, fanout=FANOUT,
                              latency=FANOUT_LATENCY),
            "fleet": run_fleet_leg(COUNT, SEED, faults, shards=SHARDS),
            "fleet+fanout": run_fleet_leg(COUNT, SEED, faults,
                                          shards=SHARDS, fanout=FANOUT,
                                          latency=FANOUT_LATENCY),
        }
        for leg_name, leg in legs.items():
            _require_parity(ChaosReport(reference, leg), label, leg_name)
            require(leg_name == "fleet" or leg.dispatched > 0,
                    f"the {label} {leg_name} leg never reached the pool; "
                    "its parity is vacuous")
        serial[label] = reference
    # Fail-once is fully recoverable, so its stream equals the clean
    # one; flaky faults may exhaust retries, so only the legs agree.
    _require_parity(ChaosReport(serial["clean"], serial["fail-once"]),
                    "serial", "recoverable faults")
    # No dispatch requirement here: the breakers open after 5 failures
    # and then fail fast, so no probe window ever fills with slow sends.
    dead = run_fleet_leg(count=10, seed=SEED,
                         fault_factory=unrecoverable_program,
                         shards=SHARDS, fanout=FANOUT,
                         latency=FANOUT_LATENCY)
    verdicts = {json.loads(row)["verdict"] for row in dead.rows}
    require(verdicts == {"indeterminate"},
            f"a dead substrate through the fleet gave {sorted(verdicts)}")
    return {
        "verdict_digest": serial["clean"].digest(),
        "verdict_count": len(serial["clean"].rows),
    }


SLO_COMMANDS = {
    "slo": ["slo", "--deterministic", "--json"],
    "events": ["events", "--deterministic", "--json"],
    "alarms": ["alarms", "--degraded", "--json"],
}


def _cli_output(argv) -> str:
    """Run ``cloudmon *argv*`` in-process; return its stdout."""
    from repro.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main(list(argv))
    require(status == 0, f"`cloudmon {' '.join(argv)}` exited {status}")
    return buffer.getvalue()


def slo():
    """The deterministic diagnostics output is byte-stable."""
    digests = {}
    for name, argv in SLO_COMMANDS.items():
        first = _cli_output(argv)
        require(first == _cli_output(argv),
                f"`cloudmon {' '.join(argv)}` is not byte-stable across "
                "runs")
        digests[name] = hashlib.sha256(first.encode("utf-8")).hexdigest()
    return digests


#: A pre-versioning flat document covering every legacy key class.
LEGACY_V0 = {
    "scenario": "cinder",
    "project_id": "myProject",
    "enforcing": False,
    "volume_quota": 5,
    "probe_planning": True,
    "probe_cache": True,
    "fanout": 2,
    "shards": 4,
    "router_seed": 0,
    "resilient": True,
    "retry": {"max_attempts": 3, "base_delay": 0.05, "seed": 11},
    "failure_threshold": 5,
    "recovery_time": 30.0,
    "manual_clock": True,
}


def _require_round_trip(config, label: str) -> None:
    from repro.config import config_digest, dumps, loads

    for kind in ("yaml", "json"):
        reparsed = loads(dumps(config, format=kind))
        require(reparsed == config
                and config_digest(reparsed) == config_digest(config),
                f"{label}: the {kind} round trip changed the config")


def config():
    """Config round trips and migrations are lossless, and every
    shipped example config validates and builds."""
    from repro.config import (MonitorConfig, build_from_config,
                              config_digest, loads, migrate)

    defaults = MonitorConfig()
    _require_round_trip(defaults, "defaults")
    require(config_digest(MonitorConfig.from_dict(
        migrate(defaults.to_dict()))) == config_digest(defaults),
        "defaults: migrate is not digest-neutral on a current document")

    lifted = migrate(LEGACY_V0)
    require(migrate(lifted) == lifted, "legacy v0: migrate is not "
            "idempotent")
    legacy = MonitorConfig.from_dict(lifted)
    require((legacy.fleet.shards, legacy.monitor.fanout,
             legacy.resilience.enabled, legacy.resilience.seed,
             legacy.observability.clock, legacy.monitor.probe_cache)
            == (4, 2, True, 11, "manual", True),
            "legacy v0: migrated values diverge from the flat document")
    _require_round_trip(legacy, "legacy v0")

    built = []
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.yaml"))
                       + glob.glob(os.path.join(ROOT, "examples",
                                                "*.json"))):
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        if "config_version" not in text:
            continue  # not a monitor config (other example assets)
        name = "examples/" + os.path.basename(path)
        parsed = loads(text)
        problems = parsed.validate()
        require(not problems, f"{name}: {'; '.join(problems)}")
        _require_round_trip(parsed, name)
        _, deployment = build_from_config(parsed)
        deployment.close()
        built.append(name)
    require(built, "no example configs found under examples/")
    return {"examples": built}


BURST_KEYS = ("requests", "shed", "modes_seen", "transitions",
              "final_mode", "verdict_digest", "metrics_digest",
              "events_digest")


def overload():
    """Generous overload controls are invisible; the burst degrades
    and recovers."""
    from repro.validation import (assert_burst_invariants,
                                  run_parity_campaign)

    _require_stream_parity(run_parity_campaign(),
                           "generous overload controls")
    summary = assert_burst_invariants().to_dict()
    return {key: summary[key] for key in BURST_KEYS}


RUNG_KEYS = ("requests", "shards", "rate", "seed", "decisions",
             "events_shed", "retained", "non_valid", "overhead_p99")


def overhead():
    """A disabled sampling block is invisible; the sampled ladder
    reconciles."""
    from repro.validation import (assert_sampling_invariants,
                                  run_sampling_parity_campaign)

    _require_stream_parity(run_sampling_parity_campaign(),
                           "a disabled sampling block")
    return {"rungs": [{key: rung[key] for key in RUNG_KEYS}
                      for rung in assert_sampling_invariants()]}


GATES = {gate.__name__: gate for gate in (
    probe_budget, chaos, cache_parity, fanout, slo, config, overload,
    overhead)}


# -- the registry ----------------------------------------------------------

def run(name: str):
    """Run gate *name*; its pinned values after a JSON round trip."""
    return json.loads(json.dumps(GATES[name]()))


def load() -> dict:
    """The recorded entries (empty when ``BASELINE`` does not exist)."""
    try:
        with open(BASELINE, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def diff(name: str, current: dict, recorded: dict) -> list:
    """Every way *current* differs from the recorded entry (empty = pass).

    Values compare as canonical JSON, so ``10`` and ``10.0`` differ.
    """
    if name not in recorded:
        return [f"{name}: no recorded entry"]
    pinned = recorded[name]
    problems = []
    for key in sorted(set(current) | set(pinned)):
        if key not in pinned:
            problems.append(f"{name}.{key}: returned but not recorded")
        elif key not in current:
            problems.append(f"{name}.{key}: recorded but not returned")
        elif (json.dumps(current[key], sort_keys=True)
              != json.dumps(pinned[key], sort_keys=True)):
            problems.append(f"{name}.{key}: recorded {pinned[key]!r}, "
                            f"got {current[key]!r}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the digest gates against scripts/gates.json.")
    parser.add_argument("--only", nargs="+", metavar="NAME",
                        choices=sorted(GATES),
                        help="run only these gates (default: all)")
    parser.add_argument("--update", action="store_true",
                        help="re-record the gates' values once their "
                             "invariants hold")
    args = parser.parse_args(argv)
    names = args.only or list(GATES)

    current, problems = {}, []
    for name in names:
        try:
            current[name] = run(name)
        except AssertionError as exc:
            problems.append(f"{name}: {exc}")
    if args.update and not problems:
        recorded = load()
        recorded.update(current)
        with open(BASELINE, "w", encoding="utf-8") as handle:
            json.dump(recorded, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"recorded {', '.join(names)} in {BASELINE}")
        return 0
    if not problems:
        recorded = load()
        problems = [problem for name in names
                    for problem in diff(name, current[name], recorded)]
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    if problems:
        print("nothing recorded" if args.update else
              "re-record an intentional change with "
              "`scripts/gates.py --only NAME --update`", file=sys.stderr)
        return 1
    print(f"ok: {', '.join(names)}")
    return 0

if __name__ == "__main__":
    sys.exit(main())
