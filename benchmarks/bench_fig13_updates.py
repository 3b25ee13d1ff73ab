"""Figure 13: update-heavy workloads vs lookup performance.

Paper: "updates have limited impact on the average query performance";
a slight latency increase over time comes from the growing run chain.
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

PERCENTS = (0, 40, 100)
CYCLES = 30
RECORDS_PER_CYCLE = 200
BATCH_SIZE = 100
SAMPLE_EVERY = 5


def fig13_update_rates() -> ExperimentResult:
    """Lookup latency over time for p% update workloads."""
    series = []
    base: Optional[float] = None
    for p in PERCENTS:
        shard = make_iot_shard(post_groom_every=10)
        workload = IoTUpdateWorkload(RECORDS_PER_CYCLE, update_percent=p, seed=5)
        line = Series(f"{p}%")
        rng = random.Random(43)
        for cycle in range(1, CYCLES + 1):
            shard.ingest(iot_rows(workload.next_cycle()))
            shard.tick()
            if cycle % SAMPLE_EVERY != 0:
                continue
            population = workload.keys_ingested
            keys = [rng.randrange(population) for _ in range(BATCH_SIZE)]
            batch = iot_keys(keys)
            start = time.perf_counter()
            shard.index_batch_lookup(batch)
            elapsed = (time.perf_counter() - start) / BATCH_SIZE
            if base is None:
                base = elapsed
            line.add(cycle, elapsed)
        series.append(line)
    return ExperimentResult(
        figure="Figure 13",
        title="Lookup latency vs update percentage",
        x_label="groom cycle",
        y_label="time per lookup",
        series=series,
        notes="normalized to the first 0% sample",
    ).normalize_all(base if base else 1.0)


def test_fig13_update_rates():
    result = fig13_update_rates()
    report(result)

    # Shape: the mean lookup cost across update rates stays within a small
    # factor -- updates do not degrade queries.
    means = [
        statistics.mean(result.series_by_label(f"{p}%").ys()) for p in PERCENTS
    ]
    assert_flat_within(means, factor=3.0, label="fig13 update impact")
