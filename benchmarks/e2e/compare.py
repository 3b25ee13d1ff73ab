"""Compare two result files written by ``suite.py``.

    python3 benchmarks/e2e/compare.py A.json B.json

prints one row per (workload, metric): both medians with their quartiles,
the ratio B/A (base: A's median), the bound from ``BENCHMARK.json`` and a
verdict for B against A:

* ``worse``      B's median is worse than A's by more than the bound;
* ``unresolved`` not worse, but the run-to-run spread of either side
                 (quartile distance / median) is wider than the bound, so
                 "no regression" cannot be told from noise;
* ``better``     B's median is better than A's by more than either side's
                 spread and a third of the bound (two sets of runs of one
                 commit taken half an hour apart differ by up to 5 %);
* ``same``       anything else.

Per-layer metrics have no bound and get no verdict.  Exits 1 on any
``worse`` or when B failed a larger share of its ops than A.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional

from suite import load_contract, quartiles


def verdict(a: Dict[str, float], b: Dict[str, float], better: str,
            bound: float) -> str:
    if not a["median"]:
        return "same" if not b["median"] else "unresolved"
    gain = (b["median"] - a["median"]) / abs(a["median"])
    if better == "lower":
        gain = -gain
    if gain < -bound:
        return "worse"
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved"
    return "better" if gain > max(a["spread"], b["spread"], bound / 3) else "same"


def compare(a: Dict[str, object], b: Dict[str, object]) -> int:
    contract = load_contract()
    worse = 0
    print(f"{'workload':14s} {'metric':46s} {'A median [q1, q3]':>38s} "
          f"{'B median [q1, q3]':>38s} {'B/A':>7s} {'bound':>6s}  verdict")
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        for section in ("end_to_end", "per_layer"):
            for spec in contract[section]:
                name = spec["name"]
                if name not in entry_a[section] or name not in entry_b[section]:
                    continue
                qa = quartiles(entry_a[section][name]["values"])
                qb = quartiles(entry_b[section][name]["values"])
                bound = spec.get("bound")
                outcome = (
                    verdict(qa, qb, spec["better"], bound)
                    if bound is not None else "-"
                )
                worse += outcome == "worse"
                ratio = qb["median"] / qa["median"] if qa["median"] else float("nan")
                cells = [
                    f"{q['median']:14.4f} [{q['q1']:.4f}, {q['q3']:.4f}]"
                    for q in (qa, qb)
                ]
                print(f"{workload:14s} {name:46s} {cells[0]:>38s} "
                      f"{cells[1]:>38s} {ratio:7.3f} "
                      f"{'' if bound is None else format(bound, '.0%'):>6s}  "
                      f"{outcome}")
        rate_a = entry_a["failed"] / entry_a["attempted"]
        rate_b = entry_b["failed"] / entry_b["attempted"]
        if rate_b > rate_a:
            worse += 1
            print(f"{workload:14s} error rate rose from {rate_a:.2e} to {rate_b:.2e}")
    return 1 if worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    results = []
    for path in paths:
        with open(path) as handle:
            results.append(json.load(handle))
    return compare(*results)


if __name__ == "__main__":
    sys.exit(main())
