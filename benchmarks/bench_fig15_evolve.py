"""Figure 15: impact of index evolve operations.

Paper: "the index evolve operation has certain overhead over the query
performance ... However, the overhead again is limited, since in the
meanwhile the index evolve operation reduces the total number of runs,
which in turn improves the query performance."
"""

import random
import statistics
import time
from typing import Optional

from repro.workloads.generator import IoTUpdateWorkload

from harness import (
    ExperimentResult,
    Series,
    assert_flat_within,
    iot_keys,
    iot_rows,
    make_iot_shard,
    report,
)

CYCLES = 40
RECORDS_PER_CYCLE = 200
BATCH_SIZE = 100
SAMPLE_EVERY = 5


def _cycle(shard, workload, evolve: bool) -> None:
    shard.ingest(iot_rows(workload.next_cycle()))
    if evolve:
        shard.tick()
    else:
        # groom + merge only; no post-groom, no evolve.
        shard.groomer.groom()
        shard.maintenance.step()


def fig15_evolve_impact() -> ExperimentResult:
    """Lookup latency with the post-groomer (and index evolution) on/off."""
    series = []
    base: Optional[float] = None
    for mode in ("post-groom", "no post-groom"):
        shard = make_iot_shard(post_groom_every=10)
        workload = IoTUpdateWorkload(RECORDS_PER_CYCLE, update_percent=10, seed=5)
        rng = random.Random(53)
        line = Series(mode)
        for cycle in range(1, CYCLES + 1):
            _cycle(shard, workload, evolve=mode == "post-groom")
            if cycle % SAMPLE_EVERY != 0:
                continue
            population = workload.keys_ingested
            keys = [rng.randrange(population) for _ in range(BATCH_SIZE)]
            batch = iot_keys(keys)
            start = time.perf_counter()
            shard.index_batch_lookup(batch)
            elapsed = (time.perf_counter() - start) / BATCH_SIZE
            if base is None:
                base = elapsed  # first post-groom sample
            line.add(cycle, elapsed)
        series.append(line)
    return ExperimentResult(
        figure="Figure 15",
        title="Impact of index evolve operations",
        x_label="groom cycle",
        y_label="time per lookup",
        series=series,
        notes="normalized to the first post-groom-enabled sample",
    ).normalize_all(base if base else 1.0)


def test_fig15_evolve_impact():
    result = fig15_evolve_impact()
    report(result)

    on = result.series_by_label("post-groom").ys()
    off = result.series_by_label("no post-groom").ys()

    # Shape: evolve overhead is bounded -- the two configurations stay
    # within a small factor of each other on average.
    on_mean = statistics.mean(on)
    off_mean = statistics.mean(off)
    assert_flat_within([on_mean, off_mean], factor=3.0, label="fig15 means")

    # Shape: evolve keeps the run count down; without post-groom the
    # groomed zone accumulates strictly more runs.
    runs = {}
    for evolve in (True, False):
        shard = make_iot_shard(post_groom_every=10)
        workload = IoTUpdateWorkload(RECORDS_PER_CYCLE, update_percent=10, seed=5)
        for _ in range(30):
            _cycle(shard, workload, evolve)
        runs[evolve] = shard.index.stats().total_runs
    assert runs[True] <= runs[False], (
        "evolve should keep the total run count at or below the no-evolve case"
    )
