"""Run the whole benchmark: every workload untraced, then traced.

    python -m bench [--seed N] [--repeat N] [--quick] [--json out.json]

Each run is a fresh interpreter (``bench/run.py``), one at a time.  The
untraced runs give the end-to-end metrics of ``BENCHMARK.json``; with
``--repeat N`` they run N times on seeds ``N, N+1, ...`` and each metric
is reported as median and quartiles, flagged when its spread (quartile
distance over median) is wider than its bound.  One traced run per
workload gives the per-layer metrics.  ``--quick`` runs at 1/50 length
with every check.  The exit code is non-zero when any run fails a check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
RUNNER = ROOT / "bench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DEFAULT_SEED = json.loads(
    (ROOT / "bench" / "expected.json").read_text())["seed"]
QUICK_DIVISOR = 50
#: Seconds one child run may take before it counts as failed.
CHILD_TIMEOUT = 600


def run_child(workload: str, seed: int, seconds: float,
              trace: bool) -> Dict[str, Any]:
    """One run of *workload* in its own interpreter; its full document."""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "run.json"
        command = [sys.executable, str(RUNNER), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(int(trace)), "--json", str(out)]
        try:
            proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            return {"workload": workload, "seed": seed, "metrics": {},
                    "failures": [f"run exceeded {CHILD_TIMEOUT} s"]}
        if not out.exists():
            return {"workload": workload, "seed": seed, "metrics": {},
                    "failures": [f"run exited {proc.returncode} without a "
                                 f"result: {proc.stderr.strip()[-2000:]}"]}
        document = json.loads(out.read_text())
    if proc.returncode != 0 and not document["failures"]:
        document["failures"].append(f"run exited {proc.returncode}")
    return document


def summarize(values: List[float], bound: float) -> Dict[str, Any]:
    """Median, quartiles and spread of repeated measurements."""
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "too_noisy": spread > bound, "values": values}


def report_workload(name: str, runs: List[Dict[str, Any]],
                    traced: Dict[str, Any]) -> Dict[str, Any]:
    """Print one workload's rows; returns its summary."""
    summary: Dict[str, Any] = {}
    for entry in SPEC["end_to_end"]:
        values = [run["metrics"][entry["name"]] for run in runs
                  if entry["name"] in run["metrics"]]
        if not values:
            continue
        row = summarize(values, entry["bound"])
        summary[entry["name"]] = row
        flag = "  SPREAD WIDER THAN BOUND" if row["too_noisy"] else ""
        spread = (f"  q1 {row['q1']:.4g} q3 {row['q3']:.4g} spread "
                  f"{row['spread']:.1%} of bound {entry['bound']:.0%}"
                  if len(values) > 1 else "")
        print(f"{name:18s} {entry['name']:24s} {row['median']:12.4f} "
              f"{entry['unit']:6s}{spread}{flag}")
    for entry in SPEC["per_layer"]:
        value = traced["metrics"].get(entry["name"])
        if value is not None:
            print(f"{name:18s} {entry['name']:24s} {value:12.4f} "
                  f"{entry['unit']}  (traced)")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench", description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help=f"run at 1/{QUICK_DIVISOR} length")
    parser.add_argument("--json", metavar="PATH",
                        help="write every run document here")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    seconds = SPEC["run_seconds"] / (QUICK_DIVISOR if args.quick else 1)

    document: Dict[str, Any] = {"seed": args.seed, "seconds": seconds,
                                "repeat": args.repeat, "workloads": {}}
    failures = []
    for workload in (entry["name"] for entry in SPEC["workloads"]):
        runs = [run_child(workload, args.seed + index, seconds, False)
                for index in range(args.repeat)]
        traced = run_child(workload, args.seed, seconds, True)
        summary = report_workload(workload, runs, traced)
        document["workloads"][workload] = {
            "summary": summary, "runs": runs, "traced": traced}
        for run in runs + [traced]:
            failures.extend(f"{workload} seed {run['seed']}: {failure}"
                            for failure in run["failures"])
    if args.json:
        Path(args.json).write_text(json.dumps(document, indent=1) + "\n")
    for failure in failures:
        print(f"bench: check failed: {failure}", file=sys.stderr)
    print("bench: all checks passed" if not failures
          else f"bench: {len(failures)} check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
