"""Figure 12: concurrent readers vs lookup performance.

Paper: "more concurrent readers have small impact on the query
performance, which demonstrates the advantages of Umzi's lock-free design
for the readers."

Measured as per-lookup *thread CPU time*: CPython's GIL serializes wall
time across reader threads no matter how an index locks, so wall latency
would measure the interpreter, not Umzi; CPU per lookup is precisely what
lock-free readers keep flat -- a lock-based reader would burn extra CPU
(or block) as readers multiply.
"""

import random
import statistics
import threading
import time
from typing import Dict, List, Optional

from repro.workloads.generator import IoTUpdateWorkload

from harness import (
    ExperimentResult,
    Series,
    assert_flat_within,
    iot_keys,
    iot_rows,
    make_iot_shard,
    report,
    seed_shard,
)

READERS = (1, 2, 4)
WARMUP_CYCLES = 20
RECORDS_PER_CYCLE = 200
BATCHES_PER_READER = 8
BATCH_SIZE = 50


def fig12_concurrent_readers() -> ExperimentResult:
    """Per-lookup CPU time vs number of concurrent readers, while ingest
    and maintenance run concurrently."""
    series_by_count: List[Series] = []
    base: Optional[float] = None
    for readers in READERS:
        shard = make_iot_shard(post_groom_every=10)
        workload = IoTUpdateWorkload(RECORDS_PER_CYCLE, update_percent=10, seed=5)
        seed_shard(shard, workload, WARMUP_CYCLES)
        population = workload.keys_ingested

        shard.start_daemons(groom_interval_s=0.01)
        samples: Dict[int, List[float]] = {i: [] for i in range(BATCHES_PER_READER)}
        lock = threading.Lock()
        errors: List[str] = []

        def reader(reader_id: int) -> None:
            rng = random.Random(41 + reader_id)
            for batch_no in range(BATCHES_PER_READER):
                keys = [rng.randrange(population) for _ in range(BATCH_SIZE)]
                batch = iot_keys(keys)
                start = time.thread_time()
                results = shard.index_batch_lookup(batch)
                cpu = time.thread_time() - start
                if all(r is None for r in results):
                    errors.append("reader found nothing at all")
                with lock:
                    samples[batch_no].append(cpu / BATCH_SIZE)

        ingest_stop = threading.Event()

        def ingester() -> None:
            while not ingest_stop.is_set():
                shard.ingest(iot_rows(workload.next_cycle()))
                time.sleep(0.01)

        ingest_thread = threading.Thread(target=ingester, daemon=True)
        ingest_thread.start()
        threads = [
            threading.Thread(target=reader, args=(i,)) for i in range(readers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ingest_stop.set()
        ingest_thread.join()
        shard.stop_daemons()
        if errors:
            raise AssertionError(errors[0])

        line = Series(f"{readers} readers")
        for batch_no in range(BATCHES_PER_READER):
            values = samples[batch_no]
            if not values:
                continue
            mean = sum(values) / len(values)
            if base is None:
                base = mean
            line.add(batch_no, mean)
        series_by_count.append(line)
    return ExperimentResult(
        figure="Figure 12",
        title="Lookup cost with concurrent readers",
        x_label="batch number (time)",
        y_label="CPU time per lookup",
        series=series_by_count,
        notes="normalized to the first 1-reader sample; CPU time per lookup "
              "(see module docstring for the GIL substitution)",
    ).normalize_all(base if base else 1.0)


def test_fig12_concurrent_readers():
    result = fig12_concurrent_readers()
    report(result)

    # Shape: mean per-lookup CPU cost stays within a small factor across
    # reader counts (lock-free readers do not interfere with each other).
    means = []
    for readers in READERS:
        ys = result.series_by_label(f"{readers} readers").ys()
        means.append(statistics.mean(ys))
    assert_flat_within(means, factor=3.0, label="fig12 reader scaling")
