"""Ablations A4/A5: Umzi vs the alternatives it was designed against.

* A4 -- unified multi-zone index vs separate per-zone indexes (the
  MemSQL-style divided view the introduction argues against): the divided
  view must probe both structures for every lookup.
* A5 -- incremental evolve vs the full rebuild a fixed-RID LSM index needs
  when data migrates between zones and RIDs change.
"""

import time

from repro.baselines.btree import SortedArrayIndex
from repro.baselines.lsm import ClassicLSMIndex
from repro.baselines.separate import SeparateZoneIndexes
from repro.core.definition import i1_definition
from repro.core.entry import RID, RID_BYTES, Zone, begin_ts_of_sort_key
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.workloads.generator import KeyMapper
from repro.workloads.queries import QueryBatchGenerator

from harness import (
    ExperimentResult,
    Series,
    entries_for_keys,
    measure_wall_s,
    report,
)


def ablation_unified_vs_divided(num_keys: int, batch_size: int) -> ExperimentResult:
    """Unified view vs separate per-zone indexes, same in-memory substrate.

    Half the keys have evolved to the post-groomed zone, half are still
    groomed -- the steady state a real HTAP shard lives in.  Both sides use
    the sorted-array substrate so the measurement isolates the *structural*
    cost of the divided view: every lookup must probe both indexes and
    reconcile client-side (the anomalies it additionally risks are
    demonstrated in tests/baselines/test_separate.py).
    """
    definition = i1_definition()
    mapper = KeyMapper(definition)
    half = num_keys // 2

    old_pg = entries_for_keys(
        definition, list(range(half)), mapper, ts_start=1,
        zone=Zone.POST_GROOMED, block_id=100,
    )
    new_groomed = entries_for_keys(
        definition, list(range(half, num_keys)), mapper, ts_start=half + 1,
        block_id=1,
    )

    unified = SortedArrayIndex(definition)
    unified.insert_many(old_pg)
    unified.insert_many(new_groomed)

    divided = SeparateZoneIndexes(definition)
    divided.add_groomed(new_groomed)
    divided.evolve([], old_pg)

    qgen = QueryBatchGenerator(mapper, num_keys, seed=73)
    batch = qgen.random_batch(batch_size)
    probe_keys = [
        entries_for_keys(
            definition, [lookup.sort_values[0] if lookup.sort_values else 0],
            mapper,
        )[0].key_bytes(definition)
        for lookup in batch
    ]

    def unified_batch() -> None:
        for key, lookup in zip(probe_keys, batch):
            unified.lookup(key, lookup.query_ts)

    def divided_batch() -> None:
        for key, lookup in zip(probe_keys, batch):
            divided.lookup(key, lookup.query_ts)

    unified_time = measure_wall_s(unified_batch, 3)
    divided_time = measure_wall_s(divided_batch, 3)
    return ExperimentResult(
        figure="Ablation A4",
        title="Unified index vs separate per-zone indexes",
        x_label="workload",
        y_label="batch lookup time (normalized to unified)",
        series=[
            Series("unified view", [("batch", 1.0)]),
            Series("divided view", [("batch", divided_time / unified_time)]),
        ],
        notes=f"{num_keys} keys, half evolved; batch of {batch_size} random "
              "lookups; identical in-memory substrate on both sides",
    )


def ablation_evolve_vs_rebuild(
    num_keys: int, evolve_fraction: float
) -> ExperimentResult:
    """Umzi's incremental evolve vs the classic LSM full rebuild when RIDs
    change for a fraction of the data."""
    definition = i1_definition()
    mapper = KeyMapper(definition)
    moved = int(num_keys * evolve_fraction)

    # Umzi side: two groomed runs; evolve only the older one, whose
    # versions (beginTS 1..moved) move to post-groomed block 100.
    levels = LevelConfig(groomed_levels=3, post_groomed_levels=2,
                         max_runs_per_level=8, size_ratio=4)
    umzi = UmziIndex(definition, config=UmziConfig(name="abl-ev", levels=levels))
    umzi.add_groomed_run(
        entries_for_keys(definition, list(range(moved)), mapper, ts_start=1),
        0, 0,
    )
    umzi.add_groomed_run(
        entries_for_keys(definition, list(range(moved, num_keys)), mapper,
                         ts_start=moved + 1, block_id=1),
        1, 1,
    )
    start = time.perf_counter()
    umzi.evolve_streaming(
        1, lambda ts: RID(Zone.POST_GROOMED, 100, ts - 1), 0, 0
    )
    evolve_time = time.perf_counter() - start

    classic = ClassicLSMIndex(definition, memtable_limit=4_096)
    classic.insert_many(
        entries_for_keys(definition, list(range(num_keys)), mapper, ts_start=1)
    )
    classic.flush()

    def remap_raw(sort_key, blob):
        # The 'older' data moved zones; both beginTS and the old RID are
        # raw slices (sort-key suffix / blob suffix) -- no entry decode.
        if begin_ts_of_sort_key(sort_key) <= moved:
            old_rid, _ = RID.from_bytes(blob, len(blob) - RID_BYTES)
            return RID(Zone.POST_GROOMED, 100, old_rid.offset)
        return None

    start = time.perf_counter()
    classic.rebuild_with_rids(remap_raw=remap_raw)
    rebuild_time = time.perf_counter() - start

    moved_label = f"{evolve_fraction:.0%} moved"
    return ExperimentResult(
        figure="Ablation A5",
        title="Incremental evolve vs full rebuild on RID change",
        x_label="fraction of data migrated",
        y_label="time (normalized to Umzi evolve)",
        series=[
            Series("umzi evolve", [(moved_label, 1.0)]),
            Series("classic LSM rebuild", [
                (moved_label, rebuild_time / max(evolve_time, 1e-9))
            ]),
        ],
        notes=f"{num_keys} keys; the classic index must rewrite everything",
    )


def test_ablation_unified_vs_divided():
    result = ablation_unified_vs_divided(num_keys=10_000, batch_size=500)
    report(result)
    divided = result.series_by_label("divided view").points[0][1]
    # Who wins: the divided view pays for probing two structures per
    # lookup (and additionally risks the duplicate/missing anomalies shown
    # in tests/baselines/test_separate.py).  The structural 2x is diluted
    # by per-lookup constant costs and each structure being half-sized, so
    # the wall-clock assertion only requires a clear, noise-proof win.
    assert divided > 1.05, (
        f"divided view should cost more than unified: {divided:.2f}x"
    )


def test_ablation_evolve_vs_rebuild():
    result = ablation_evolve_vs_rebuild(num_keys=8_000, evolve_fraction=0.25)
    report(result)
    rebuild_ratio = result.series_by_label("classic LSM rebuild").points[0][1]
    # Who wins: evolve touches only the migrated fraction; the rebuild
    # rewrites the whole index and must cost clearly more.
    assert rebuild_ratio > 1.5, (
        f"full rebuild should cost well over evolve: ratio {rebuild_ratio:.2f}"
    )
