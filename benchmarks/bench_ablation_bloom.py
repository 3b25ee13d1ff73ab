"""Ablation A7: per-run Bloom filters for point lookups (extension).

Synopses prune by range, which random ingest defeats (Figure 11b); a
Bloom filter prunes by membership and keeps working there.  This ablation
measures random batches over randomly-ingested runs -- the synopsis's
worst case -- with filters on and off.
"""

from repro.core.definition import i1_definition
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.core.query import MAX_QUERY_TS
from repro.workloads.generator import KeyGenerator, KeyMapper, KeyMode
from repro.workloads.queries import QueryBatchGenerator

from harness import (
    ExperimentResult,
    Series,
    batch_keys,
    entries_for_keys,
    measure_wall_s,
    report,
)

NUM_RUNS = 16
ENTRIES_PER_RUN = 2_000
BATCH = 300


def build_index(bloom_fpr):
    definition = i1_definition()
    mapper = KeyMapper(definition)
    levels = LevelConfig(
        groomed_levels=4, post_groomed_levels=3,
        max_runs_per_level=NUM_RUNS + 1, size_ratio=4,
    )
    index = UmziIndex(definition, config=UmziConfig(
        name=f"abl-bloom-{bloom_fpr}", levels=levels, bloom_fpr=bloom_fpr,
    ))
    generator = KeyGenerator(
        KeyMode.RANDOM, seed=7, key_space=NUM_RUNS * ENTRIES_PER_RUN
    )
    ts = 1
    for gid in range(NUM_RUNS):
        keys = generator.next_batch(ENTRIES_PER_RUN)
        index.add_groomed_run(
            entries_for_keys(definition, keys, mapper, ts_start=ts, block_id=gid),
            gid, gid,
        )
        ts += ENTRIES_PER_RUN
    return index, mapper


def test_ablation_bloom():
    population = NUM_RUNS * ENTRIES_PER_RUN
    series = []
    base_wall = None
    base_sim = None
    indexes = {}
    for fpr, label in ((None, "no bloom filters"), (0.01, "bloom fpr=1%")):
        index, mapper = build_index(fpr)
        indexes[label] = (index, mapper)
        qgen = QueryBatchGenerator(mapper, population, seed=89)
        keys = batch_keys(qgen.random_batch(BATCH))

        def op(index=index, keys=keys):
            for run in index.all_runs():
                run.drop_decode_cache()
            index.batch_lookup(keys, MAX_QUERY_TS)

        sim_before = index.hierarchy.stats.total_sim_ns
        elapsed = measure_wall_s(op, repeat=2)
        sim_ns = index.hierarchy.stats.total_sim_ns - sim_before
        if base_wall is None:
            base_wall, base_sim = elapsed, sim_ns
        series.append(Series(label, [
            ("random batch (wall)", elapsed / base_wall),
            ("random batch (sim I/O)", sim_ns / base_sim),
        ]))
    result = ExperimentResult(
        figure="Ablation A7",
        title="Bloom filters under random ingest (synopsis worst case)",
        x_label="workload",
        y_label="batch lookup cost (normalized to no-bloom)",
        series=series,
        notes=f"{NUM_RUNS} runs x {ENTRIES_PER_RUN} randomly ingested "
              f"entries; ~37% of the batch misses every run",
    )
    report(result)

    # Assert on the deterministic simulated I/O cost: since the zero-decode
    # hot path made probes nearly free, wall time on this small fixture is
    # too noisy to gate on, but the block fetches the filter avoids are
    # exactly reproducible.
    bloom_sim = result.series_by_label("bloom fpr=1%").points[1][1]
    assert bloom_sim < 0.9, (
        f"bloom filters should cut simulated random-batch I/O under random "
        f"ingest; got {bloom_sim:.2f}"
    )

    # Correctness cross-check.
    (idx_a, mapper) = indexes["no bloom filters"]
    (idx_b, _) = indexes["bloom fpr=1%"]
    keys = batch_keys(
        QueryBatchGenerator(mapper, population, seed=97).random_batch(100)
    )
    summary = lambda index: [
        None if e is None else (e.equality_values, e.begin_ts)
        for e in index.batch_lookup(keys, MAX_QUERY_TS)
    ]
    assert summary(idx_a) == summary(idx_b)
