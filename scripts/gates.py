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


def _require_parity(baseline, other, label: str, what: str) -> None:
    """*other*'s verdict rows equal *baseline*'s (two leg records)."""
    from repro.validation import first_divergence

    require(baseline.rows == other.rows,
            f"{what} changed the {label} verdict stream (first divergence "
            f"at row {first_divergence(baseline, other)})")


def _require_stream_parity(parity, what: str) -> None:
    """*parity* compares verdicts, metrics and events (calm legs)."""
    require(parity["parity"], f"{what} changed the calm workload (equal "
            f"verdicts/metrics/events: {parity['verdict_parity']}/"
            f"{parity['metrics_parity']}/{parity['events_parity']})")


# -- the gates -------------------------------------------------------------

def probe_budget():
    """GET probes per monitored request, planning on, cache off and on."""
    from repro.validation import campaign_config, probes_per_request, run_leg
    from repro.workloads import make_workload

    workload = make_workload(60, seed=42)
    uncached = run_leg(campaign_config(), workload)
    cached = run_leg(campaign_config(probe_cache=True), workload)
    rate = probes_per_request(cached)
    require(rate < CACHED_CEILING,
            f"cached probe rate {rate:.4f} is not below the "
            f"{CACHED_CEILING:.2f} ceiling")
    return {
        "probes_per_request": probes_per_request(uncached),
        "cached_probes_per_request": rate,
        "cache": cached.monitors[0].probe_cache.stats(),
    }


def chaos():
    """Recoverable faults change no verdict; a dead substrate is
    indeterminate throughout."""
    from repro.validation import (assert_indeterminate_degradation,
                                  chaos_config, indeterminate,
                                  recoverable_program, run_leg)
    from repro.workloads import make_workload

    workload = make_workload(COUNT, seed=SEED)
    baseline = run_leg(chaos_config(), workload)
    _require_parity(baseline, run_leg(chaos_config(), workload,
                                      (recoverable_program,)),
                    "serial", "recoverable faults")
    dead = assert_indeterminate_degradation(count=10, seed=SEED)
    return {
        "verdict_digest": baseline.digest(),
        "verdict_count": len(baseline.rows),
        "dead_substrate_indeterminate": indeterminate(dead),
    }


def cache_parity():
    """The probe cache changes no verdict, and probes less."""
    from repro.validation import chaos_config, recoverable_program, run_leg
    from repro.workloads import make_workload

    workload = make_workload(COUNT, seed=SEED)
    uncached = {}
    for label, faults in (("clean", ()),
                          ("fail-once", (recoverable_program,))):
        uncached[label] = run_leg(chaos_config(), workload, faults)
        cached = run_leg(chaos_config(probe_cache=True), workload, faults)
        _require_parity(uncached[label], cached, label, "the probe cache")
        if label == "clean":
            require(cached.probe_count < uncached[label].probe_count,
                    f"the cached leg issued {cached.probe_count} probes, "
                    f"not fewer than the uncached "
                    f"{uncached[label].probe_count}; is the cache wired "
                    "in?")
    return {
        "clean_digest": uncached["clean"].digest(),
        "faulted_digest": uncached["fail-once"].digest(),
        "verdict_count": len(uncached["clean"].rows),
    }


def fanout():
    """Fan-out and the sharded fleet change no verdict, clean or
    faulted; the fan-out legs run behind a slow substrate, so their
    probes really overlap."""
    from repro.validation import (chaos_config, flaky_program, real_latency,
                                  recoverable_program, run_leg,
                                  unrecoverable_program)
    from repro.workloads import make_workload

    workload = make_workload(COUNT, seed=SEED)
    slow = (real_latency(FANOUT_LATENCY),)
    serial = {}
    for label, faults in (("clean", ()),
                          ("fail-once", (recoverable_program,)),
                          ("flaky", (flaky_program,))):
        reference = run_leg(chaos_config(), workload, faults)
        legs = {
            "fanout": run_leg(chaos_config(fanout=FANOUT), workload,
                              slow + faults),
            "fleet": run_leg(chaos_config(shards=SHARDS), workload, faults),
            "fleet+fanout": run_leg(
                chaos_config(shards=SHARDS, fanout=FANOUT), workload,
                slow + faults),
        }
        for leg_name, leg in legs.items():
            _require_parity(reference, leg, label, leg_name)
            require(leg_name == "fleet" or leg.dispatched > 0,
                    f"the {label} {leg_name} leg never reached the pool; "
                    "its parity is vacuous")
        serial[label] = reference
    # Fail-once is fully recoverable, so its stream equals the clean
    # one; flaky faults may exhaust retries, so only the legs agree.
    _require_parity(serial["clean"], serial["fail-once"], "serial",
                    "recoverable faults")
    # No dispatch requirement here: the breakers open after 5 failures
    # and then fail fast, so no probe window ever fills with slow sends.
    dead = run_leg(chaos_config(shards=SHARDS, fanout=FANOUT),
                   make_workload(10, seed=SEED),
                   slow + (unrecoverable_program,))
    verdicts = {verdict.verdict for verdict in dead.verdicts}
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


def _require_round_trip(config, label: str) -> None:
    from repro.config import config_digest, dumps, loads

    for kind in ("yaml", "json"):
        reparsed = loads(dumps(config, format=kind))
        require(reparsed == config
                and config_digest(reparsed) == config_digest(config),
                f"{label}: the {kind} round trip changed the config")


def config():
    """Config round trips are lossless, and every shipped example
    config validates and builds."""
    from repro.config import MonitorConfig, loads
    from repro.validation import run_leg

    _require_round_trip(MonitorConfig(), "defaults")

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
        run_leg(parsed, [])
        built.append(name)
    require(built, "no example configs found under examples/")
    return {"examples": built}


BURST_KEYS = ("requests", "shed", "modes_seen", "transitions",
              "final_mode", "verdict_digest", "metrics_digest",
              "events_digest")


def overload():
    """Generous overload controls are invisible; the burst degrades
    and recovers."""
    from repro.validation import (assert_burst_invariants, burst_leg,
                                  burst_summary, calm_leg, generous_config,
                                  overload_config, stream_parity)

    _require_stream_parity(
        stream_parity(calm_leg(overload_config(enabled=False)),
                      calm_leg(generous_config())),
        "generous overload controls")
    summary = burst_summary(assert_burst_invariants(burst_leg()))
    return {key: summary[key] for key in BURST_KEYS}


RUNG_KEYS = ("requests", "shards", "rate", "seed", "decisions",
             "events_shed", "retained", "non_valid", "overhead_p99")


def overhead():
    """A disabled sampling block is invisible; the sampled ladder
    reconciles."""
    from repro.validation import (DISABLED_SAMPLING,
                                  assert_sampling_invariants, calm_leg,
                                  overhead_leg, overhead_rung,
                                  sampling_config, stream_parity)
    from repro.validation.sampling import INVARIANT_RATE, INVARIANT_SEED

    _require_stream_parity(
        stream_parity(calm_leg(sampling_config()),
                      calm_leg(sampling_config(DISABLED_SAMPLING))),
        "a disabled sampling block")
    rungs = [overhead_rung(overhead_leg(requests, SHARDS, INVARIANT_RATE,
                                        INVARIANT_SEED))
             for requests in (16, 64)]
    return {"rungs": [{key: rung[key] for key in RUNG_KEYS}
                      for rung in assert_sampling_invariants(rungs)]}


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
