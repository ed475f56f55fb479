"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload mixed_cpu --seed 1 --seconds 10 --trace 0

Builds nothing: the program is imported from ``src/`` of the checkout
this file sits in.  With ``--trace 0`` the last line of standard output
is one JSON object holding every end-to-end metric named in
``BENCHMARK.json``; with ``--trace 1`` it holds every per-layer metric.
``--json PATH`` also writes the full run document (checks, per-layer
breakdown by parent, raw spans of the first requests).  The exit code is
0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import it there.

    Refuses a ``repro`` found anywhere else: the benchmark measures the
    code of its own checkout or nothing.
    """
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import the program from {SRC}: "
                         f"{exc}")
    location = Path(repro.__file__).resolve()
    if SRC not in location.parents:
        raise SystemExit(f"bench: repro was imported from {location}, "
                         f"not from {SRC}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="PATH",
                        help="also write the full run document here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_program()
    from bench.measure import run
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"known: {', '.join(WORKLOADS)}")
    document = run(WORKLOADS[args.workload], args.seed, args.seconds,
                   bool(args.trace))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        value = document["metrics"][entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{args.workload:18s} {entry['name']:26s} "
              f"{value:14.4f} {entry['unit']}")
    for failure in document["failures"]:
        print(f"bench: check failed: {failure}", file=sys.stderr)
    if args.json:
        Path(args.json).write_text(json.dumps(document, indent=1) + "\n")
    print(json.dumps({"correct": not document["failures"],
                      "attempted": document["attempted"],
                      "failed": document["failed"],
                      "metrics": metrics}))
    return 0 if not document["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
