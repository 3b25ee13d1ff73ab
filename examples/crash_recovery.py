"""Operations tour: crash recovery and multi-tier cache management.

Demonstrates the operational side of Umzi (paper sections 5.5 and 6):

1. an indexer-node crash that wipes memory and the SSD cache, followed by
   recovery purely from shared storage -- including a crash injected
   *between* evolve sub-operations;
2. the SSD cache manager under space pressure: level-based purging (old
   runs first, headers retained), query-driven block-basis refetches, and
   re-loading when space frees up;
3. non-persisted levels: merges into memory-only levels with ancestor
   retention, surviving a crash.

Run:  python examples/crash_recovery.py
"""

from repro.core.definition import ColumnSpec
from repro.core.entry import Zone
from repro.core.levels import LevelConfig
from repro.core.index import UmziConfig, UmziIndex
from repro.core.definition import IndexDefinition
from repro.core.entry import RID
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.ssd import SSDTier


def build_index(non_persisted=frozenset(), ssd_capacity=None) -> UmziIndex:
    definition = IndexDefinition(
        equality_columns=(ColumnSpec("device"),),
        sort_columns=(ColumnSpec("msg"),),
        included_columns=(ColumnSpec("reading"),),
    )
    levels = LevelConfig(
        groomed_levels=3, post_groomed_levels=2,
        max_runs_per_level=2, size_ratio=2,
        non_persisted_levels=non_persisted,
    )
    hierarchy = StorageHierarchy(ssd=SSDTier(capacity_bytes=ssd_capacity))
    return UmziIndex(
        definition, hierarchy,
        UmziConfig(name="ops", levels=levels, data_block_bytes=4096),
    )


def feed(index: UmziIndex, runs: int, per_run: int = 200) -> None:
    ts = 1
    for gid in range(runs):
        entries = []
        for i in range(per_run):
            key = gid * per_run + i
            entries.append(index.make_entry(
                (key % 16,), (key,), (key * 10,), ts, RID(Zone.GROOMED, gid, i)
            ))
            ts += 1
        index.add_groomed_run(entries, gid, gid)


def scenario_crash_mid_evolve() -> None:
    print("== crash between evolve sub-operations ==")
    index = build_index()
    feed(index, 4)
    index.run_maintenance()

    # The indexer starts an evolve: sub-operation 1 splices the new RIDs
    # of gids 0..1's versions (beginTS 1..400, moved to post-groomed
    # block 100) into their groomed entries and publishes the run ...
    def new_rid_of(begin_ts):
        if begin_ts > 400:
            return None
        return RID(Zone.POST_GROOMED, 100, begin_ts - 1)

    index.evolver.step1_build_run(new_rid_of, 0, 1)
    print("  evolve step 1 done (post-groomed run published)")
    # ... and the node dies before the watermark advances.
    index.hierarchy.crash_local_tiers()
    print("  CRASH: memory and SSD lost")

    state = index.recover()
    print(f"  recovered {sum(len(v) for v in state.runs_by_zone.values())} "
          f"runs; deleted {len(state.deleted_run_ids)} superseded, "
          f"{len(state.incomplete_run_ids)} incomplete")
    hit = index.lookup((3,), (3,))
    scan = index.scan((3,), (3,), (3,))
    assert hit is not None and len(scan) == 1
    print(f"  key (3,3) answered exactly once after recovery: rid={hit.rid}\n")


def scenario_cache_pressure() -> None:
    print("== SSD cache pressure ==")
    index = build_index(ssd_capacity=120_000)
    feed(index, 6)
    index.run_maintenance()
    cache = index.cache
    print(f"  SSD utilization {index.hierarchy.ssd.utilization():.0%} "
          f"(the maintenance pass inside run_maintenance already purged "
          f"under pressure)")
    cache.maintain()
    print(f"  steady state: utilization "
          f"{index.hierarchy.ssd.utilization():.0%}, cached level "
          f"{cache.current_cached_level}, cached fraction "
          f"{cache.cached_fraction():.2f}")

    # Queries against purged runs still work -- blocks stream back from
    # shared storage on a block basis and are released afterwards.
    before = index.hierarchy.stats.tier("shared").reads
    hit = index.lookup((5,), (5,))
    after = index.hierarchy.stats.tier("shared").reads
    print(f"  lookup on (possibly purged) data: found={hit is not None}, "
          f"shared-storage reads during query: {after - before}")

    # Manual purge-level control (the Figure 14 experiment's knob).
    cache.set_cache_level(-1)
    print(f"  set_cache_level(-1): cached fraction "
          f"{cache.cached_fraction():.2f} (headers only)")
    cache.set_cache_level(index.config.levels.total_levels - 1)
    print(f"  set_cache_level(max): cached fraction "
          f"{cache.cached_fraction():.2f}\n")


def scenario_non_persisted_levels() -> None:
    print("== non-persisted levels + crash ==")
    index = build_index(non_persisted=frozenset({1}))
    # Two level-0 runs merge into level 1 (memory-only) and stay there.
    feed(index, 2)
    index.run_maintenance()
    stats = index.stats()
    np_runs = [lv for lv in stats.levels if not lv.persisted and lv.run_count]
    print(f"  memory-only levels holding runs: "
          f"{[lv.level for lv in np_runs] or 'none'}")
    for run in index.all_runs():
        if not run.header.persisted:
            print(f"  {run.run_id} (level {run.level}) retains ancestors: "
                  f"{list(run.header.ancestor_run_ids)}")
    answers_before = {
        k: index.lookup((k % 16,), (k,)).begin_ts for k in (0, 250, 399)
    }
    index.hierarchy.crash_local_tiers()
    index.recover()
    answers_after = {
        k: index.lookup((k % 16,), (k,)).begin_ts for k in (0, 250, 399)
    }
    assert answers_before == answers_after
    print(f"  all probes identical after crash+recovery: {answers_after}\n")


def main() -> None:
    scenario_crash_mid_evolve()
    scenario_cache_pressure()
    scenario_non_persisted_levels()
    print("all scenarios passed")


if __name__ == "__main__":
    main()
