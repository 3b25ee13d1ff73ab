"""Front-door benchmark: one process, one closed-loop client.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the orders table (three times, for a steady ``setup_s``), then
sends a seed-generated op stream through ``ShardedTable.point_query`` /
``query`` / ``ingest`` / ``tick`` -- the next op only after the previous
one returned -- for S seconds, checks every answer against the
generator's oracle, and prints every metric by name with its unit.  The
last line of stdout is the result as one JSON object.

Times are wall-clock times of the front-door calls divided by the host
factor of the moment (``hostspeed.py``): *reference seconds*, which repeat
on this shared box where wall seconds do not.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` installs the
timing wrappers of ``tracer.py`` on two chunks out of three and reports
the per-layer metrics instead; the untraced run never imports the tracer.
See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from array import array
from collections import Counter
from typing import Dict, List, Optional, Tuple

_SRC = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir, "src"
))
if os.path.isdir(os.path.join(_SRC, "repro")) and _SRC not in sys.path:
    # The benchmark command may name nothing outside its own directory,
    # so PYTHONPATH=src cannot be part of it.
    sys.path.insert(0, _SRC)

from repro.qos.errors import PartialResultError, QosError  # noqa: E402

from hostspeed import host_factor  # noqa: E402
from workloads import WORKLOADS, Generator, Op, make_table  # noqa: E402

SETUPS_PER_RUN = 3
# Arrival-clock time granted before every op: two tokens' worth at the
# default 20k ops/s, so the admission bucket never runs dry and a shed is
# a failure, not load shedding.
ARRIVAL_GAP_NS = 100_000
SMOKE_SHRINK = 10
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "read_p50_us": "us",
    "read_p90_us": "us",
    "ingest_rows_per_s": "rows/s",
    "sim_io_s": "s",
    "write_amp": "ratio",
    "space_amp": "ratio",
    "peak_rss_mb": "MB",
}
DRIVER_UNITS = {
    "driver.read_p99_us": "us",
    "driver.point_p50_us": "us",
    "driver.typed_p50_us": "us",
    "driver.ingest_call_p50_us": "us",
    "driver.tick_p50_ms": "ms",
    "driver.tick_max_ms": "ms",
    "driver.rows_returned_per_s": "rows/s",
    "driver.wall_ops_per_s": "1/s",
    "driver.host_factor": "ratio",
}


def percentile(sorted_values, share: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    return sorted_values[min(len(sorted_values) - 1, int(share * len(sorted_values)))]


class Driver:
    """The closed-loop client: times each front-door call, then checks it."""

    def __init__(self, table) -> None:
        self.table = table
        # Reference seconds per call, by op kind.
        self.latency_s: Dict[str, array] = {
            kind: array("d") for kind in ("point", "query", "ingest", "tick")
        }
        self.wall_seconds = 0.0  # inside the calls, as the clock read it
        self.host_factors: List[float] = []  # one per drive()
        self.attempted = 0
        self.failures: Counter = Counter()  # (kind, reason) -> ops
        self.rows_ingested = 0
        self.rows_returned = 0

    def drive(self, ops: List[Op]) -> float:
        """Run ``ops`` in order; returns the reference seconds inside the calls.

        Answers are compared with the expected ones after the loop, so
        the oracle costs the timed calls nothing.
        """
        table = self.table
        # Looked up per call, not per driver: the tracer swaps these
        # attributes between chunks.
        point_query, query = table.point_query, table.query
        ingest, tick = table.ingest, table.tick
        advance_clock = table.advance_clock
        now = time.perf_counter
        outcomes = []
        walls = array("d")
        factor = host_factor()
        for kind, argument, _ in ops:
            advance_clock(ARRIVAL_GAP_NS)
            start = now()
            try:
                if kind == "point":
                    outcome = point_query((), (argument,))
                elif kind == "query":
                    outcome = query(argument)
                elif kind == "ingest":
                    outcome = ingest(argument)
                else:
                    outcome = tick()
            except Exception as exc:  # counted as a failed op, run continues
                outcome = exc
            walls.append(now() - start)
            outcomes.append(outcome)
        factor = (factor + host_factor()) / 2
        wall_seconds = sum(walls)
        self.host_factors.append(factor)
        self.wall_seconds += wall_seconds
        self.attempted += len(ops)
        for (kind, argument, expected), wall, outcome in zip(ops, walls, outcomes):
            self.latency_s[kind].append(wall / factor)
            self._check(kind, argument, expected, outcome)
        return wall_seconds / factor

    def _check(self, kind: str, argument, expected, outcome) -> None:
        if isinstance(outcome, Exception):
            reason = (
                "partial" if isinstance(outcome, PartialResultError)
                else "shed" if isinstance(outcome, QosError)
                else "exception"
            )
            if not self.failures[(kind, reason)]:  # the first of its kind
                print(f"warning: {kind} failed: {outcome!r}", file=sys.stderr)
            self.failures[(kind, reason)] += 1
            return
        if kind == "point":
            answer = None if outcome is None else tuple(outcome.values)
            self.rows_returned += outcome is not None
        elif kind == "query":
            answer = outcome
            self.rows_returned += len(outcome)
        elif kind == "ingest":
            answer = sum(outcome.values())
            self.rows_ingested += len(argument)
        else:
            return
        if answer != expected:
            self.failures[(kind, "wrong")] += 1

    def write_seconds(self) -> float:
        return sum(self.latency_s["ingest"]) + sum(self.latency_s["tick"])

    def busy_seconds(self) -> float:
        return sum(map(sum, self.latency_s.values()))


def driver_metrics(driver: Driver) -> Dict[str, float]:
    """Informational front-door numbers (0 where the workload has no such op)."""
    def latency(kinds: Tuple[str, ...], share: float, scale: float) -> float:
        pooled = sorted(sum((driver.latency_s[k] for k in kinds), array("d")))
        return percentile(pooled, share) * scale if pooled else 0.0

    return {
        "driver.read_p99_us": latency(("point", "query"), 0.99, 1e6),
        "driver.point_p50_us": latency(("point",), 0.50, 1e6),
        "driver.typed_p50_us": latency(("query",), 0.50, 1e6),
        "driver.ingest_call_p50_us": latency(("ingest",), 0.50, 1e6),
        "driver.tick_p50_ms": latency(("tick",), 0.50, 1e3),
        "driver.tick_max_ms": latency(("tick",), 1.0, 1e3),
        "driver.rows_returned_per_s": driver.rows_returned / driver.busy_seconds(),
        "driver.wall_ops_per_s": driver.attempted / driver.wall_seconds,
        "driver.host_factor": statistics.median(driver.host_factors),
    }


def set_up(workload: str, seed: int, smoke: bool) -> Tuple[object, Generator, Driver]:
    """Load phase: ingest + tick per batch, no trailing quiesce.

    Returns the table, its generator (holding the oracle) and the driver
    that carried the load.
    """
    generator = Generator(workload, seed, SMOKE_SHRINK if smoke else 1)
    table = make_table(WORKLOADS[workload]["shards"])
    driver = Driver(table)
    for rows in generator.load_batches():
        driver.drive([("ingest", rows, len(rows)), ("tick", None, None)])
    if WORKLOADS[workload].get("purge"):
        for shard in table.shards:
            for shard_index in shard.indexes.all():
                shard_index.index.cache.set_cache_level(-1)
    return table, generator, driver


def check_shape(table) -> None:
    """The timed phase must start on a multi-run, two-zone index."""
    for shard_id, shard_stats in enumerate(table.stats()["per_shard"]):
        index = shard_stats["index"]
        if (
            index.groomed_run_count < 1
            or index.post_groomed_run_count < 1
            or index.total_runs < 3
        ):
            raise SystemExit(
                f"shard {shard_id} starts the timed phase with "
                f"{index.groomed_run_count} groomed and "
                f"{index.post_groomed_run_count} post-groomed runs; the "
                "workloads need >= 3 runs spanning both zones"
            )


def checkpoint_metrics(table, generator) -> Dict[str, float]:
    """The metrics that depend on the seed alone, read at a fixed op count.

    All cover the table's whole life so far: its load and the timed ops up
    to the checkpoint.
    """
    io = table.stats()["io"]
    oracle = generator.oracle
    shared_used = sum(shard.hierarchy.shared.used_bytes for shard in table.shards)
    return {
        "sim_io_s": io.total_sim_ns / 1e9,
        "write_amp": io.tier("shared").bytes_written / oracle.user_bytes_ingested,
        "space_amp": shared_used / oracle.live_user_bytes(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        chunks: Optional[int], smoke: bool) -> Dict[str, object]:
    loaders = []
    for _ in range(1 if smoke else SETUPS_PER_RUN):
        table = generator = None  # drop the previous table before building
        gc.collect()
        table, generator, loader = set_up(workload, seed, smoke)
        loaders.append(loader)
    check_shape(table)

    # In a traced run, chunk i runs with the wrappers on unless i % 3 == 0,
    # and each side has its own driver so their latencies stay apart.
    plain = Driver(table)
    traced = tracer = None
    if trace:
        from tracer import PER_LAYER_UNITS, Tracer
        tracer = Tracer(table)
        traced = Driver(table)
    checkpoint_at = WORKLOADS[workload]["checkpoint_chunks"]
    if chunks is not None:
        checkpoint_at = min(checkpoint_at, chunks)
    stats_before = table.stats()
    chunk_rates: List[float] = []
    checkpoint = None
    deadline = time.perf_counter() + seconds
    while True:
        ops = generator.next_chunk()
        with_wrappers = trace and len(chunk_rates) % 3 != 0
        if trace:
            tracer.set_traced(with_wrappers)
        driver = traced if with_wrappers else plain
        chunk_rates.append(len(ops) / driver.drive(ops))
        if len(chunk_rates) == checkpoint_at:
            checkpoint = (
                tracer.count_metrics(stats_before, table.stats(), plain, traced)
                if trace else checkpoint_metrics(table, generator)
            )
        if chunks is not None:
            if len(chunk_rates) >= chunks:
                break
        elif checkpoint is not None and time.perf_counter() >= deadline:
            break

    drivers = loaders + [plain] + ([traced] if trace else [])
    if trace:
        tracer.set_traced(False)
        os.makedirs(RESULTS_DIR, exist_ok=True)
        tracer.write_spans(os.path.join(RESULTS_DIR, f"trace_{workload}.json"))
        values = {
            **driver_metrics(plain),
            **tracer.time_metrics(plain, traced),
            **checkpoint,
        }
        units = {**DRIVER_UNITS, **PER_LAYER_UNITS}
    else:
        reads = sorted(plain.latency_s["point"] + plain.latency_s["query"])
        values = {
            "setup_s": statistics.median(d.busy_seconds() for d in loaders),
            "ops_per_s": statistics.median(chunk_rates),
            "read_p50_us": percentile(reads, 0.50) * 1e6,
            "read_p90_us": percentile(reads, 0.90) * 1e6,
            "ingest_rows_per_s": (
                sum(d.rows_ingested for d in drivers)
                / sum(d.write_seconds() for d in drivers)
            ),
            **checkpoint,
        }
        units = END_TO_END_UNITS
    failures = sum((d.failures for d in drivers), Counter())
    for (kind, reason), count in sorted(failures.items()):
        print(f"failed {kind} ops ({reason}): {count}")
    return {
        "correct": not failures,
        "attempted": sum(d.attempted for d in drivers),
        "failed": sum(failures.values()),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--chunks", type=int, default=None,
                        help="stop after this many chunks instead of after "
                             "--seconds (exact replay)")
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of every size and one set-up")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.chunks, args.smoke)
    for name, metric in result["metrics"].items():
        print(f"{name:50s} {metric['value']:16.4f} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
