"""``cloudmon``: drive the whole reproduction from the command line.

Subcommands:

* ``cloudmon table`` -- print the Table-I security requirements render,
* ``cloudmon contracts [TRIGGER]`` -- print the generated Listing-1
  contracts (all methods, or one trigger like ``"DELETE(volume)"``),
* ``cloudmon demo`` -- boot the simulated cloud + monitor and replay the
  standard battery, printing each verdict,
* ``cloudmon campaign [--extended]`` -- run the mutation campaign and
  print the kill matrix (the Section VI-D experiment),
* ``cloudmon metrics [--json] [--deterministic]`` -- replay a battery and
  print the monitor's metrics (per-stage latency histograms, verdict
  counters) as Prometheus text or JSON,
* ``cloudmon events [--json] [--event T] [--verdict V]`` -- replay a
  battery and print the structured wide-event log (one record per
  monitored request plus transport incidents), filterable, as text,
  JSON, or JSONL to a file,
* ``cloudmon slo [--json] [--deterministic]`` -- replay a battery and
  print the SLO burn-rate report (the ``/-/health`` document),
* ``cloudmon overload [--json]`` -- run the overload campaign: the
  generous-controls parity leg and the deterministic 10x burst (shed,
  degrade through the mode ladder, recover),
* ``cloudmon dot {resources,behavior}`` -- Graphviz DOT of the Figure-3
  models,
* ``cloudmon slice RESOURCE [...]`` -- slice the Cinder models and print
  the sliced contracts,
* ``cloudmon localize AUDIT.jsonl`` -- fault hypotheses from a persisted
  verdict log,
* ``cloudmon serve [--port N]`` -- run the whole simulated deployment on
  a real HTTP socket for cURL experiments.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

from .cloud import extended_mutants, paper_mutants
from .config import ObservabilitySection, SamplingSection, build_from_config
from .core import ContractGenerator, cinder_behavior_model, cinder_resource_model
from .errors import ReproError
from .rbac import SecurityRequirementsTable
from .validation import (
    MutationCampaign,
    campaign_config,
    extended_battery,
    run_leg,
    standard_battery,
)


def cmd_table(_args: argparse.Namespace) -> int:
    print(SecurityRequirementsTable.paper_table().render())
    return 0


def cmd_contracts(args: argparse.Namespace) -> int:
    generator = ContractGenerator(cinder_behavior_model(),
                                  cinder_resource_model())
    if args.trigger:
        print(generator.for_trigger(args.trigger).render())
        return 0
    for contract in generator.all_contracts().values():
        print(contract.render())
        print()
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    battery = extended_battery() if args.extended else standard_battery()
    leg = run_leg(campaign_config(enforcing=args.enforcing,
                                  probe_cache=args.probe_cache), battery)
    monitor = leg.monitors[0]
    print(f"{'step':<24} {'status':>6}  verdict")
    for step, status, verdict in zip(battery, leg.statuses, leg.verdicts):
        print(f"{step.name:<24} {status:>6}  {verdict.verdict}")
    print()
    print(monitor.coverage.report())
    if monitor.probe_cache is not None:
        stats = monitor.probe_cache.stats()
        print(f"\nprobe cache: {stats['hits']} hits, "
              f"{stats['misses']} misses, "
              f"{stats['invalidations']} invalidations")
    violations = monitor.violations()
    print(f"\nviolations: {len(violations)}")
    return 0 if not violations else 1


def cmd_campaign(args: argparse.Namespace) -> int:
    mutants = extended_mutants() if args.extended else paper_mutants()
    battery = extended_battery() if args.extended else standard_battery()
    campaign = MutationCampaign(battery=battery)
    result = campaign.run(mutants)
    print(result.render())
    return 0 if result.kill_rate == 1.0 else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the chaos campaign and report parity + degradation.

    Exit code 0 means recoverable faults left the verdict stream
    byte-identical to the fault-free baseline AND a dead substrate
    degraded every request to ``indeterminate``.
    """
    import json

    from .validation import (assert_breaker_sequence,
                             assert_indeterminate_degradation, chaos_config,
                             first_divergence, indeterminate,
                             recoverable_program, retries)
    from .workloads import make_workload

    workload = make_workload(args.requests, seed=args.seed)
    baseline = run_leg(chaos_config(), workload)
    faulted = run_leg(chaos_config(), workload, (recoverable_program,))
    parity = baseline.rows == faulted.rows
    if args.json:
        print(json.dumps({
            "parity": parity,
            "baseline_digest": baseline.digest(),
            "faulted_digest": faulted.digest(),
            "verdict_count": len(baseline.rows),
            "faulted_retries": retries(faulted),
            "faulted_indeterminate": indeterminate(faulted),
        }, indent=2, sort_keys=True))
    else:
        print(f"chaos campaign: {len(baseline.rows)} monitored "
              f"requests, seed {args.seed}")
        print(f"  retries absorbed:     {retries(faulted):.0f}")
        print(f"  verdict parity:       {'OK' if parity else 'BROKEN'}")
        if not parity:
            print(f"  first divergence at row "
                  f"{first_divergence(baseline, faulted)}")
    try:
        dead = assert_indeterminate_degradation(count=10, seed=args.seed)
    except AssertionError as exc:
        print(f"  dead substrate:       FAILED ({exc})", file=sys.stderr)
        return 1
    if not args.json:
        print(f"  dead substrate:       {indeterminate(dead)}/"
              f"{len(dead.rows)} indeterminate")
    try:
        transitions = assert_breaker_sequence()
    except AssertionError as exc:
        print(f"  breaker lifecycle:    FAILED ({exc})", file=sys.stderr)
        return 1
    if not args.json:
        print("  breaker lifecycle:    "
              + " -> ".join(["closed"] + [to for _, to in transitions]))
    return 0 if parity else 1


def cmd_overload(args: argparse.Namespace) -> int:
    """Run the overload campaign: parity leg plus the 10x burst leg.

    Exit code 0 means (a) enabled-but-generous overload controls left
    the calm workload's verdict/metrics/event digests byte-identical to
    the disabled-controls baseline, and (b) under the deterministic
    burst every request was forwarded in some mode, load was shed, mode
    transitions were recorded, and the ladder recovered to ``full``.
    """
    import json

    from .validation import (burst_leg, burst_summary, calm_leg,
                             generous_config, overload_config, stream_parity)

    parity = stream_parity(calm_leg(overload_config(enabled=False)),
                           calm_leg(generous_config()))
    summary = burst_summary(burst_leg())
    ok = parity["parity"] and summary["ok"]
    if args.json:
        print(json.dumps({"parity": parity, "burst": summary},
                         indent=2, sort_keys=True))
        return 0 if ok else 1
    print(f"overload campaign: {parity['verdict_count']} calm + "
          f"{summary['requests']} burst requests")
    print(f"  parity (generous controls): "
          f"{'OK' if parity['parity'] else 'BROKEN'} "
          f"(verdicts {'=' if parity['verdict_parity'] else '!='}, "
          f"metrics {'=' if parity['metrics_parity'] else '!='}, "
          f"events {'=' if parity['events_parity'] else '!='})")
    print(f"  burst answered/forwarded:   "
          f"{summary['verdicts']}/{summary['requests']} "
          f"({'all forwarded' if summary['all_forwarded'] else 'BLOCKED'})")
    print(f"  requests shed:              {summary['shed']}")
    print(f"  modes served:               "
          + " -> ".join(summary['modes_seen']))
    print(f"  ladder transitions:         "
          + ", ".join(f"{a}->{b}" for a, b in summary['transitions']))
    print(f"  final mode:                 {summary['final_mode']}")
    return 0 if ok else 1


def cmd_fleet(args: argparse.Namespace) -> int:
    """Replay the chaos workload through a sharded fleet.

    Proves dispatch correctness: the fleet's merged, arrival-ordered
    verdict stream must be byte-identical to a serial single-monitor
    run of the same seeded workload.
    """
    import json

    from .validation import chaos_config, indeterminate
    from .workloads import make_workload

    workload = make_workload(args.requests, seed=args.seed)
    serial = run_leg(chaos_config(probe_cache=args.probe_cache), workload)
    fleet = run_leg(chaos_config(shards=args.shards, fanout=args.fanout,
                                 probe_cache=args.probe_cache), workload)
    parity = serial.rows == fleet.rows
    summary = {
        "shards": args.shards,
        "fanout": args.fanout,
        "requests": args.requests,
        "seed": args.seed,
        "verdicts": len(fleet.rows),
        "serial_digest": serial.digest(),
        "fleet_digest": fleet.digest(),
        "parity": parity,
        "probe_count": fleet.probe_count,
        "indeterminate": indeterminate(fleet),
    }
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"fleet: {args.shards} shard(s), fan-out {args.fanout}, "
              f"{len(fleet.rows)} verdicts (seed {args.seed})")
        print(f"  verdict parity vs serial:  "
              f"{'OK' if parity else 'BROKEN'}")
        print(f"  verdict digest:            {fleet.digest()[:16]}...")
        print(f"  probes issued:             {fleet.probe_count}")
    return 0 if parity else 1


def _monitored_session(args: argparse.Namespace):
    """Replay a battery through a fresh monitor; returns the monitor.

    ``--deterministic`` injects a ManualClock (fixed tick per clock read)
    so every emitted duration, event timestamp, and SLO report is
    byte-identical across runs -- the property the diagnostics gates pin.
    ``--sample-rate`` (where the subcommand offers it) enables head/tail
    trace sampling at that keep probability, seeded by ``--sample-seed``;
    without the flag the session is unsampled.
    """
    sample_rate = getattr(args, "sample_rate", None)
    sampling = (SamplingSection(enabled=True, rate=sample_rate,
                                seed=getattr(args, "sample_seed", 0) or 0)
                if sample_rate is not None else SamplingSection())
    config = replace(campaign_config(enforcing=args.enforcing),
                     observability=ObservabilitySection(
                         clock="manual" if args.deterministic else "system",
                         tick=1e-4 if args.deterministic else 0.0,
                         sampling=sampling))
    battery = extended_battery() if args.extended else standard_battery()
    return run_leg(config, battery).monitors[0]


def cmd_metrics(args: argparse.Namespace) -> int:
    """Run a monitored session and print its metrics exposition."""
    import json

    obs = _monitored_session(args).obs
    if args.json:
        print(json.dumps(obs.export_json(), indent=2, sort_keys=True))
    else:
        print(obs.export_prometheus(), end="")
    return 0


def _event_line(record: dict) -> str:
    """One compact, deterministic text line for a wide event."""
    kind = record["event"]
    if kind == "monitor_request":
        detail = (f"{record['operation']} -> {record['verdict']} "
                  f"({record['duration']}s, {record['probes']} probes)")
    elif kind == "breaker_transition":
        detail = (f"{record['host']}: {record['from_state']} -> "
                  f"{record['to_state']}")
    elif kind == "transport_retry":
        detail = f"{record['host']}: attempt {record['attempt']}"
    elif kind == "transport_give_up":
        detail = f"{record['host']}: {record['reason']}"
    else:
        detail = " ".join(
            f"{key}={record[key]}" for key in sorted(record)
            if key not in ("seq", "event", "time", "trace_id"))
    trace = record.get("trace_id") or "-"
    return (f"#{record['seq']:<5} t={record['time']:<12.6g} "
            f"{trace:<10} {kind:<20} {detail}")


def _non_negative_int(text: str) -> int:
    """argparse type for counts such as ``--limit``."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be non-negative, got {value}")
    return value


def cmd_events(args: argparse.Namespace) -> int:
    """Run a monitored session and print its wide-event log.

    The audit log keeps verdicts; the event log keeps *why* -- one flat
    record per monitored request (probe plan, per-stage durations,
    retry/breaker outcomes) plus transport incidents, filterable by
    ``--event`` / ``--trace`` / ``--verdict``.
    """
    import json

    obs = _monitored_session(args).obs
    criteria = {}
    if args.event:
        criteria["event"] = args.event
    if args.trace:
        criteria["trace_id"] = args.trace
    if args.verdict:
        criteria["verdict"] = args.verdict
    if args.limit is not None:
        criteria["limit"] = args.limit
    if args.output:
        count = obs.events.write_jsonl(args.output, **criteria)
        print(f"wrote {count} events to {args.output}")
        return 0
    records = obs.events.to_dicts(**criteria)
    if args.json:
        print(json.dumps({
            "retained": len(obs.events),
            "emitted": obs.events.emitted_count,
            "events": records,
        }, indent=2, sort_keys=True))
    else:
        for record in records:
            print(_event_line(record))
        print(f"{len(records)} events shown "
              f"({obs.events.emitted_count} emitted)")
    return 0


def cmd_slo(args: argparse.Namespace) -> int:
    """Run a monitored session and print the SLO burn-rate report.

    Exit code 0 when every objective is healthy; 1 when any SLO breaches
    all of its burn windows (the same condition that turns the
    ``/-/health`` route into a 503).
    """
    import json

    monitor = _monitored_session(args)
    report = monitor.slos.report()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(monitor.slos.render())
    return 0 if report["overall"] == "ok" else 1


def _degraded_alarm_session():
    """A deterministic incident: healthy -> dead substrate -> recovery.

    Everything runs under a fixed-tick ManualClock and the seeded
    battery-free request loop, so the alarm transition log -- escalation
    to CRITICAL while the substrate is dead, hysteretic stand-down after
    it heals and the burn windows drain -- is byte-identical across
    runs.  The ``slo`` gate in ``scripts/gates.py`` pins its digest.
    """
    from .validation import HOSTS, chaos_config, unrecoverable_program

    cloud, monitor = build_from_config(chaos_config())
    clock = monitor.obs.clock
    token = cloud.paper_tokens()["alice"]
    url = "http://cmonitor/cmonitor/volumes"

    def replay(count: int) -> None:
        for _ in range(count):
            monitor.app.get(url, headers={"X-Auth-Token": token})

    replay(6)                                   # healthy baseline
    for host in HOSTS:
        cloud.network.inject_fault(host, unrecoverable_program(clock))
    replay(6)                                   # burn: escalate
    for host in HOSTS:
        cloud.network.clear_fault(host)
    clock.advance(3600.5)                       # drain both burn windows
    replay(8)                                   # recover: stand down
    return cloud, monitor


def cmd_alarms(args: argparse.Namespace) -> int:
    """Print the alarm report: states, hysteresis, transition log.

    Exit code 0 unless any alarm currently stands at CRITICAL --
    the same condition that turns ``/-/health`` into a 503.
    """
    import json

    if args.degraded:
        _cloud, monitor = _degraded_alarm_session()
    else:
        monitor = _monitored_session(args)
    report = monitor.alarms.report()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(monitor.alarms.render())
    return 1 if monitor.alarms.has_critical() else 0


def _load_config_document(path: str):
    """Read *path* and return its raw (pre-schema) document mapping."""
    from .config import parse_text

    with open(path, "r", encoding="utf-8") as handle:
        return parse_text(handle.read())


def cmd_config(args: argparse.Namespace) -> int:
    """Inspect and validate declarative monitor configs."""
    from .config import CONFIG_VERSION, MonitorConfig, config_digest, dumps

    if args.config_command == "show":
        config = (MonitorConfig.from_dict(_load_config_document(args.path))
                  if args.path else MonitorConfig())
        print(dumps(config, format=args.format), end="")
        print(f"# digest: sha256:{config_digest(config)}",
              file=sys.stderr)
        return 0

    config = MonitorConfig.from_dict(_load_config_document(args.path))
    problems = config.validate()
    if problems:
        for problem in problems:
            print(f"{args.path}: {problem}", file=sys.stderr)
        return 1
    print(f"{args.path}: valid (config_version {CONFIG_VERSION}, "
          f"digest sha256:{config_digest(config)[:16]}...)")
    return 0


def cmd_run_config(args: argparse.Namespace) -> int:
    """Stand up the deployment a config file describes and exercise it.

    The ``cloudmon --config monitor.yaml`` quickstart: build the cloud
    and monitor (or fleet) purely from the document, replay the seeded
    workload, and print the verdict histogram plus health and alarm
    state.
    """
    import json

    from .config import MonitorConfig
    from .workloads import make_workload, status_histogram

    config = MonitorConfig.from_dict(_load_config_document(args.config))
    leg = run_leg(config, make_workload(40, seed=7))
    overall = "ok"
    for monitor in leg.monitors:
        state = monitor.alarms.overall
        if monitor.alarms.has_critical():
            overall = "critical"
        elif state != "ok" and overall == "ok":
            overall = state
    print(f"deployment: scenario={config.scenario.name} "
          f"shards={len(leg.monitors)} "
          f"enforcing={config.monitor.enforcing} "
          f"resilient={config.resilience.enabled}")
    print("verdicts: " + json.dumps(status_histogram(leg.statuses),
                                    sort_keys=True))
    print(f"alarms:   {overall}")
    return 1 if overall == "critical" else 0


def cmd_dot(args: argparse.Namespace) -> int:
    from .uml import class_diagram_to_dot, state_machine_to_dot

    if args.model == "resources":
        print(class_diagram_to_dot(cinder_resource_model()))
    else:
        print(state_machine_to_dot(cinder_behavior_model()))
    return 0


def cmd_slice(args: argparse.Namespace) -> int:
    from .uml import slice_models

    diagram, machine = slice_models(
        cinder_resource_model(), cinder_behavior_model(), args.resources,
        methods=args.methods or None)
    print(f"sliced models: {len(diagram.classes)} classes, "
          f"{len(machine.states)} states, "
          f"{len(machine.transitions)} transitions")
    generator = ContractGenerator(machine, diagram)
    for contract in generator.all_contracts().values():
        print()
        print(contract.render())
    return 0


def cmd_localize(args: argparse.Namespace) -> int:
    from .core import read_log
    from .validation import localize, render_report

    verdicts = read_log(args.logfile)
    print(f"loaded {len(verdicts)} verdicts from {args.logfile}")
    print(render_report(localize(verdicts)))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .core import check_consistency, check_models
    from .uml import validate_class_diagram, validate_state_machine

    diagram = cinder_resource_model(with_snapshots=args.release2)
    machine = cinder_behavior_model(with_snapshots=args.release2)
    findings = []
    findings += validate_class_diagram(diagram)
    findings += validate_state_machine(machine, diagram)
    findings += check_models(diagram, machine)
    overlaps = check_consistency(machine)

    if not findings and not overlaps:
        print("models are well-formed, cross-checked, and consistent "
              "over the sampled state space")
        return 0
    for finding in findings:
        print(f"{finding.level.upper()}: {finding.element}: "
              f"{finding.message}")
    for overlap in overlaps:
        print(f"OVERLAP ({overlap.kind}): {overlap.first} vs "
              f"{overlap.second}; witness: {overlap.witness}")
    blocking = [finding for finding in findings
                if finding.level == "error"] or overlaps
    return 1 if blocking else 0


def cmd_report(args: argparse.Namespace) -> int:
    from .validation import session_report

    battery = extended_battery() if args.extended else standard_battery()
    leg = run_leg(campaign_config(), battery)
    mutants = extended_mutants() if args.extended else paper_mutants()
    result = MutationCampaign(battery=battery).run(mutants)
    report = session_report(leg.monitors[0], result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0 if result.kill_rate == 1.0 else 1


def cmd_serve(args: argparse.Namespace) -> int:  # pragma: no cover - blocks
    from .httpsim import serve

    cloud, monitor = build_from_config(
        campaign_config(enforcing=not args.audit))
    tokens = cloud.paper_tokens()
    server = serve(monitor.app, port=args.port).start()
    print(f"cloud monitor listening on {server.base_url}/cmonitor/volumes")
    print("tokens:")
    for user, token in tokens.items():
        print(f"  {user}: {token}")
    print("example:")
    print(f"  curl -H 'X-Auth-Token: {tokens['alice']}' "
          f"{server.base_url}/cmonitor/volumes")
    try:
        import time

        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        server.stop()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloudmon",
        description="Model-driven cloud monitor reproduction (DSN 2018)")
    parser.add_argument(
        "--config", default=None, metavar="PATH",
        help="declarative monitor config (YAML/JSON); with no "
             "subcommand, builds the deployment it describes and "
             "replays the seeded workload through it")
    sub = parser.add_subparsers(dest="command", required=False)

    sub.add_parser("table", help="print the Table-I security requirements")

    contracts = sub.add_parser(
        "contracts", help="print the generated method contracts")
    contracts.add_argument("trigger", nargs="?", default=None,
                           help='optional trigger, e.g. "DELETE(volume)"')

    demo = sub.add_parser("demo", help="replay the request battery through "
                                       "the monitor")
    demo.add_argument("--enforcing", action="store_true",
                      help="block failing pre-conditions (Figure 2 proxy "
                           "mode) instead of audit mode")
    demo.add_argument("--extended", action="store_true",
                      help="use the extended battery with functional edges")
    demo.add_argument("--probe-cache", action="store_true",
                      help="serve pre-phase probes for untouched roots "
                           "from the cross-request cache")

    campaign = sub.add_parser(
        "campaign", help="run the mutation-validation campaign")
    campaign.add_argument("--extended", action="store_true",
                          help="six mutants + extended battery instead of "
                               "the paper's three")

    chaos = sub.add_parser(
        "chaos", help="verdict parity under recoverable faults + "
                      "indeterminate degradation under a dead substrate")
    chaos.add_argument("--requests", type=int, default=40,
                       help="workload size (default 40)")
    chaos.add_argument("--seed", type=int, default=7,
                       help="workload/fault seed (default 7)")
    chaos.add_argument("--json", action="store_true",
                       help="machine-readable summary")

    overload = sub.add_parser(
        "overload", help="overload campaign: generous-controls parity "
                         "plus the 10x burst (shed, degrade, recover)")
    overload.add_argument("--json", action="store_true",
                          help="machine-readable summary")

    fleet = sub.add_parser(
        "fleet", help="sharded monitor fleet: verdict parity vs a serial "
                      "run")
    fleet.add_argument("--shards", type=int, default=4,
                       help="number of monitor shards (default 4)")
    fleet.add_argument("--fanout", type=int, default=4,
                       help="probe fan-out width per shard (default 4: "
                            "a phase overlaps its root probes only when "
                            "the last 8 probes each took >= 1 ms; "
                            "1 never overlaps)")
    fleet.add_argument("--requests", type=int, default=40,
                       help="workload size (default 40)")
    fleet.add_argument("--seed", type=int, default=7,
                       help="workload seed (default 7)")
    fleet.add_argument("--probe-cache", action="store_true",
                       help="per-shard probe caches (verdicts must match "
                            "the uncached serial run)")
    fleet.add_argument("--json", action="store_true",
                       help="machine-readable summary")

    metrics = sub.add_parser(
        "metrics", help="replay a battery and print the monitor's metrics "
                        "(Prometheus text, or --json)")
    metrics.add_argument("--json", action="store_true",
                         help="JSON document (metrics + traces) instead of "
                              "Prometheus text exposition")
    metrics.add_argument("--extended", action="store_true",
                         help="extended battery with functional edges")
    metrics.add_argument("--enforcing", action="store_true",
                         help="enforcing mode instead of audit mode")
    metrics.add_argument("--deterministic", action="store_true",
                         help="inject a fixed-tick manual clock so output "
                              "is identical across runs")
    metrics.add_argument("--sample-rate", type=float, default=None,
                         help="enable head/tail trace sampling at this "
                              "keep probability in [0, 1] (adds the "
                              "monitor_traces_sampled_total and "
                              "obs_overhead_seconds families)")
    metrics.add_argument("--sample-seed", type=int, default=0,
                         help="seed for the hash-based sampling decision "
                              "(default 0)")

    events = sub.add_parser(
        "events", help="replay a battery and print the structured "
                       "wide-event log")
    events.add_argument("--json", action="store_true",
                        help="full JSON document instead of one line per "
                             "event")
    events.add_argument("--event", default=None,
                        help="only events of this type, e.g. "
                             "monitor_request")
    events.add_argument("--trace", default=None,
                        help="only events correlated with this trace id")
    events.add_argument("--verdict", default=None,
                        help="only monitor_request events with this "
                             "verdict")
    events.add_argument("--limit", type=_non_negative_int, default=None,
                        help="keep only the most recent N matches")
    events.add_argument("--output", "-o", default=None,
                        help="write the matching events as JSONL to a file")
    events.add_argument("--extended", action="store_true",
                        help="extended battery with functional edges")
    events.add_argument("--enforcing", action="store_true",
                        help="enforcing mode instead of audit mode")
    events.add_argument("--deterministic", action="store_true",
                        help="inject a fixed-tick manual clock so output "
                             "is identical across runs")
    events.add_argument("--sample-rate", type=float, default=None,
                        help="enable head/tail trace sampling at this "
                             "keep probability in [0, 1]; dropped traces' "
                             "monitor_request events are shed, kept ones "
                             "carry sampling_decision and obs_overhead")
    events.add_argument("--sample-seed", type=int, default=0,
                        help="seed for the hash-based sampling decision "
                             "(default 0)")

    slo = sub.add_parser(
        "slo", help="replay a battery and print the SLO burn-rate report "
                    "(the /-/health document)")
    slo.add_argument("--json", action="store_true",
                     help="the raw report document instead of the table")
    slo.add_argument("--extended", action="store_true",
                     help="extended battery with functional edges")
    slo.add_argument("--enforcing", action="store_true",
                     help="enforcing mode instead of audit mode")
    slo.add_argument("--deterministic", action="store_true",
                     help="inject a fixed-tick manual clock so output "
                          "is identical across runs")

    alarms = sub.add_parser(
        "alarms", help="replay a battery and print the alarm report "
                       "(states, hysteresis, transition log)")
    alarms.add_argument("--json", action="store_true",
                        help="the raw report document instead of the table")
    alarms.add_argument("--extended", action="store_true",
                        help="extended battery with functional edges")
    alarms.add_argument("--enforcing", action="store_true",
                        help="enforcing mode instead of audit mode")
    alarms.add_argument("--deterministic", action="store_true",
                        help="inject a fixed-tick manual clock so output "
                             "is identical across runs")
    alarms.add_argument("--degraded", action="store_true",
                        help="deterministic incident replay: dead "
                             "substrate escalates to CRITICAL, recovery "
                             "stands the alarm down (always manual-clock)")

    config_parser = sub.add_parser(
        "config", help="inspect and validate declarative monitor configs")
    config_sub = config_parser.add_subparsers(dest="config_command",
                                              required=True)
    config_show = config_sub.add_parser(
        "show", help="print the canonical form of a config (or the "
                     "built-in defaults)")
    config_show.add_argument("path", nargs="?", default=None,
                             help="config file; omit for the defaults")
    config_show.add_argument("--format", choices=["yaml", "json"],
                             default="yaml")
    config_validate = config_sub.add_parser(
        "validate", help="strict schema + semantic validation")
    config_validate.add_argument("path", help="config file to validate")

    dot = sub.add_parser("dot", help="Graphviz DOT of the design models")
    dot.add_argument("model", choices=["resources", "behavior"])

    slice_parser = sub.add_parser(
        "slice", help="slice the Cinder models to given resources")
    slice_parser.add_argument("resources", nargs="+",
                              help="resource names, e.g. volume")
    slice_parser.add_argument("--methods", nargs="*", default=None,
                              help="optional HTTP method filter")

    localize_parser = sub.add_parser(
        "localize", help="fault hypotheses from a JSONL audit log")
    localize_parser.add_argument("logfile", help="path to the audit log")

    check_parser = sub.add_parser(
        "check", help="validate, cross-check, and consistency-check the "
                      "built-in models")
    check_parser.add_argument("--release2", action="store_true",
                              help="check the release-2 (snapshot) models")

    report_parser = sub.add_parser(
        "report", help="run battery + campaign and emit a Markdown report")
    report_parser.add_argument("--output", "-o", default=None,
                               help="write the report to a file")
    report_parser.add_argument("--extended", action="store_true",
                               help="extended battery and mutant set")

    serve_parser = sub.add_parser(
        "serve", help="run the monitored deployment on a real socket")
    serve_parser.add_argument("--port", type=int, default=8000)
    serve_parser.add_argument("--audit", action="store_true",
                              help="audit mode instead of enforcing")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "table": cmd_table,
        "contracts": cmd_contracts,
        "demo": cmd_demo,
        "campaign": cmd_campaign,
        "chaos": cmd_chaos,
        "overload": cmd_overload,
        "fleet": cmd_fleet,
        "metrics": cmd_metrics,
        "events": cmd_events,
        "slo": cmd_slo,
        "alarms": cmd_alarms,
        "config": cmd_config,
        "dot": cmd_dot,
        "slice": cmd_slice,
        "check": cmd_check,
        "localize": cmd_localize,
        "report": cmd_report,
        "serve": cmd_serve,
    }
    if args.command is None:
        if args.config is None:
            parser.error("a subcommand (or --config PATH) is required")
        handler = cmd_run_config
    else:
        handler = handlers[args.command]
    try:
        return handler(args)
    except ReproError as exc:
        print(f"cloudmon: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
