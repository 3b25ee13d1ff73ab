"""Run every workload on several seeds, each run in a fresh interpreter.

    python3 benchmarks/e2e/suite.py --out A.json [--seeds 10] [--record]

writes one result file holding every run's value of every metric (the
input of ``compare.py``), prints median, quartiles and spread per
(workload, end-to-end metric), and with ``--record`` appends the medians
to ``results/trajectory.jsonl``.  Per workload it makes ``--seeds``
untraced runs (seeds 1..N) for the end-to-end metrics and ``--traced``
traced runs (seeds 1..M) for the per-layer ones.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
TRAJECTORY = os.path.join(HERE, "results", "trajectory.jsonl")


def load_contract() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and their distance as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
    }


def one_run(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, object]:
    """One fresh interpreter; returns the JSON object of its last line."""
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = completed.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(
            f"{workload} seed {seed} trace {trace} printed no result "
            f"(exit code {completed.returncode})"
        )
    return json.loads(lines[-1])


def commit_id() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, check=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_suite(workloads: List[str], seeds: int, traced: int,
              seconds: int) -> Dict[str, object]:
    result = {
        "commit": commit_id(),
        "date": datetime.date.today().isoformat(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seconds": seconds,
        "seeds": seeds,
        "traced_runs": traced,
        "workloads": {},
    }
    for workload in workloads:
        entry = {"attempted": 0, "failed": 0, "end_to_end": {}, "per_layer": {}}
        result["workloads"][workload] = entry
        plan = [(seed, 0) for seed in range(1, seeds + 1)]
        plan += [(seed, 1) for seed in range(1, traced + 1)]
        for seed, trace in plan:
            run = one_run(workload, seed, seconds, trace)
            entry["attempted"] += run["attempted"]
            entry["failed"] += run["failed"]
            section = entry["per_layer" if trace else "end_to_end"]
            for name, metric in run["metrics"].items():
                section.setdefault(
                    name, {"unit": metric["unit"], "values": []}
                )["values"].append(metric["value"])
            print(f"  {workload} seed {seed} trace {trace}: "
                  f"{run['failed']} of {run['attempted']} ops failed",
                  file=sys.stderr)
    return result


def print_table(result: Dict[str, object]) -> None:
    print(f"{'workload':14s} {'metric':20s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s}  unit")
    for workload, entry in result["workloads"].items():
        for name, metric in entry["end_to_end"].items():
            q = quartiles(metric["values"])
            print(f"{workload:14s} {name:20s} {q['median']:12.4f} "
                  f"{q['q1']:12.4f} {q['q3']:12.4f} {q['spread']:7.2%}  "
                  f"{metric['unit']}")


def record(result: Dict[str, object]) -> None:
    """Append every metric's median and spread over the runs to the trajectory."""
    line = {key: value for key, value in result.items() if key != "workloads"}
    line["workloads"] = {}
    for workload, entry in result["workloads"].items():
        summary = {"attempted": entry["attempted"], "failed": entry["failed"]}
        for section in ("end_to_end", "per_layer"):
            summary[section] = {}
            for name, metric in entry[section].items():
                q = quartiles(metric["values"])
                summary[section][name] = {
                    "median": q["median"], "spread": round(q["spread"], 4),
                    "unit": metric["unit"],
                }
        line["workloads"][workload] = summary
    os.makedirs(os.path.dirname(TRAJECTORY), exist_ok=True)
    with open(TRAJECTORY, "a") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="result file to write")
    parser.add_argument("--workload", action="append", choices=names,
                        help="only this workload (repeatable)")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--traced", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"])
    parser.add_argument("--record", action="store_true",
                        help="append the medians to results/trajectory.jsonl")
    args = parser.parse_args(argv)
    result = run_suite(args.workload or names, args.seeds, args.traced,
                       args.seconds)
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=1)
    print_table(result)
    if args.record:
        record(result)
    failed = sum(e["failed"] for e in result["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
