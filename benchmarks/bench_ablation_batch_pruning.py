"""Ablation A6: batch-granularity vs per-key synopsis pruning.

The paper prunes candidate runs per *batch* (its Figure 10b shows random
batches degrading linearly with run count -- per-key pruning would have
flattened that curve, since under sequential ingest each key overlaps
exactly one run's synopsis).  This reproduction implements the paper's
batch-granularity pruning by default and offers per-key pruning as an
extension (``UmziConfig.per_key_batch_pruning``); this ablation quantifies
what the extension buys.
"""

from repro.core.definition import i1_definition
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.core.query import MAX_QUERY_TS
from repro.workloads.generator import KeyMapper
from repro.workloads.queries import QueryBatchGenerator

from harness import (
    ExperimentResult,
    Series,
    batch_keys,
    entries_for_keys,
    measure_wall_s,
    report,
)

NUM_RUNS = 20
ENTRIES_PER_RUN = 2_000
BATCH = 400


def build_index(per_key: bool) -> UmziIndex:
    definition = i1_definition()
    mapper = KeyMapper(definition)
    levels = LevelConfig(
        groomed_levels=4, post_groomed_levels=3,
        max_runs_per_level=NUM_RUNS + 1, size_ratio=4,
    )
    index = UmziIndex(
        definition,
        config=UmziConfig(
            name=f"abl-pk-{per_key}", levels=levels,
            per_key_batch_pruning=per_key,
        ),
    )
    ts = 1
    for gid in range(NUM_RUNS):
        keys = list(range(gid * ENTRIES_PER_RUN, (gid + 1) * ENTRIES_PER_RUN))
        index.add_groomed_run(
            entries_for_keys(definition, keys, mapper, ts_start=ts, block_id=gid),
            gid, gid,
        )
        ts += ENTRIES_PER_RUN
    return index


def test_ablation_batch_pruning():
    definition = i1_definition()
    mapper = KeyMapper(definition)
    population = NUM_RUNS * ENTRIES_PER_RUN
    series = []
    base = None
    indexes = {}
    for per_key in (False, True):
        index = build_index(per_key)
        indexes[per_key] = index
        label = "per-key pruning" if per_key else "batch pruning (paper)"
        line = Series(label)
        qgen = QueryBatchGenerator(mapper, population, seed=79)
        keys = batch_keys(qgen.random_batch(BATCH))

        def op(index=index, keys=keys):
            for run in index.all_runs():
                run.drop_decode_cache()
            index.batch_lookup(keys, MAX_QUERY_TS)

        elapsed = measure_wall_s(op, repeat=2)
        if base is None:
            base = elapsed
        line.add("random batch", elapsed / base)
        series.append(line)
    result = ExperimentResult(
        figure="Ablation A6",
        title="Batch-granularity vs per-key synopsis pruning",
        x_label="workload",
        y_label="batch lookup time (normalized to batch pruning)",
        series=series,
        notes=f"{NUM_RUNS} runs x {ENTRIES_PER_RUN} sequentially ingested "
              f"entries; random batch of {BATCH}",
    )
    report(result)

    per_key_cost = result.series_by_label("per-key pruning").points[0][1]
    # Under sequential ingest each key overlaps one run, so per-key pruning
    # must win clearly on random batches.
    assert per_key_cost < 0.7, (
        f"per-key pruning should cut random-batch cost; got {per_key_cost:.2f}"
    )

    # Correctness cross-check: identical answers.
    qgen = QueryBatchGenerator(mapper, population, seed=83)
    keys = batch_keys(qgen.random_batch(100))
    answers_batch = indexes[False].batch_lookup(keys, MAX_QUERY_TS)
    answers_perkey = indexes[True].batch_lookup(keys, MAX_QUERY_TS)
    assert [
        None if e is None else (e.equality_values, e.sort_values, e.begin_ts)
        for e in answers_batch
    ] == [
        None if e is None else (e.equality_values, e.sort_values, e.begin_ts)
        for e in answers_perkey
    ]
