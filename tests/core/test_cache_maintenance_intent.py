"""Maintenance-aware cache behaviour end to end.

The scan-thrashing scenario ROADMAP flagged after PR 2: a streaming evolve
reads entire (possibly purged) groomed runs through the normal hierarchy
path.  Those reads must not promote blocks into the SSD cache or churn the
cache manager's accounting.
"""

from repro.core.cache import CacheManager
from repro.core.entry import RID, Zone
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import ReadIntent
from repro.storage.ssd import SSDTier

from tests.conftest import make_entries
from tests.reference_search import sort_key_at


def make_definition():
    from repro.core.definition import i1_definition

    return i1_definition()


def build_index(name, num_runs=3, entries_per_run=200):
    definition = make_definition()
    levels = LevelConfig(
        groomed_levels=3, post_groomed_levels=2,
        max_runs_per_level=max(num_runs + 1, 4), size_ratio=4,
    )
    index = UmziIndex(
        definition,
        config=UmziConfig(
            name=name, levels=levels, data_block_bytes=2048,
        ),
    )
    ts = 1
    for gid in range(num_runs):
        keys = list(range(gid * entries_per_run, (gid + 1) * entries_per_run))
        index.add_groomed_run(
            make_entries(definition, keys, begin_ts_start=ts, block_id=gid),
            gid, gid,
        )
        ts += entries_per_run
    return index


def new_rid_of(begin_ts):
    return RID(Zone.POST_GROOMED, begin_ts // 100, begin_ts % 100)


class TestEvolveDoesNotThrashCache:
    def test_streaming_evolve_registers_zero_promotions(self):
        index = build_index("ev-intent")
        # Purge everything so evolve's source blocks live only in shared
        # storage -- the scan-thrash scenario.
        index.cache.set_cache_level(-1)
        ssd_ids_before = set(index.hierarchy.ssd.block_ids())
        maint_before = index.hierarchy.stats.intents[
            ReadIntent.MAINTENANCE
        ].snapshot()
        result = index.evolve_streaming(1, new_rid_of, 0, 2)
        assert result.spliced_blobs > 0
        delta = index.hierarchy.stats.intents[ReadIntent.MAINTENANCE].diff(
            maint_before
        )
        assert delta.reads > 0, "evolve must be attributed to MAINTENANCE"
        assert delta.promotions == 0, (
            "maintenance reads must never promote into the SSD cache"
        )
        # No data block sneaked back into the SSD: with the cache level
        # pinned at -1 the output run is not written through either, so at
        # most header blocks (ordinal 0) may differ.
        ssd_ids_after = set(index.hierarchy.ssd.block_ids())
        new_data_blocks = [
            bid for bid in ssd_ids_after - ssd_ids_before if bid.ordinal > 0
        ]
        assert not new_data_blocks

    def test_maintenance_iteration_does_not_pollute_view_cache(self):
        index = build_index("view-cache", num_runs=1)
        run = index.run_lists[Zone.GROOMED].snapshot()[0]
        run.drop_decode_cache()
        for block_index in range(run.header.num_data_blocks):
            run.block_columns(block_index)
        assert not run._views, (
            "maintenance streams must not retain block views on the handle"
        )
        # A query-path touch still memoizes.
        sort_key_at(run, 0)
        assert run._views

    def test_scoped_maintenance_probes_still_memoize_views(self):
        # The post-groomer's point lookups run under reading_as(MAINTENANCE)
        # but probe the same block many times (binary search); only the
        # *explicit* streaming intent may skip memoization, otherwise every
        # probe re-fetches the block from the hierarchy.
        index = build_index("scoped-probes", num_runs=1, entries_per_run=400)
        run = index.run_lists[Zone.GROOMED].snapshot()[0]
        run.drop_decode_cache()
        stats = index.hierarchy.stats.intents[ReadIntent.MAINTENANCE]
        with index.hierarchy.reading_as(ReadIntent.MAINTENANCE):
            before = stats.snapshot()
            for ordinal in range(0, run.entry_count, 7):
                sort_key_at(run, ordinal)
            delta = stats.diff(before)
        assert run._views, "scope-inherited probes must memoize views"
        assert delta.reads <= run.header.num_data_blocks, (
            f"{delta.reads} block reads for probes over "
            f"{run.header.num_data_blocks} blocks; views must be reused"
        )

class TestCacheManagerBypass:
    def make_manager(self):
        index = build_index("cm", num_runs=2)
        return index, index.cache

    def test_load_run_bypasses_for_maintenance(self):
        index, cache = self.make_manager()
        run = index.run_lists[Zone.GROOMED].snapshot()[0]
        cache.purge_run(run)
        assert not cache.is_run_cached(run)
        assert cache.load_run(run, intent=ReadIntent.MAINTENANCE) is True
        assert not cache.is_run_cached(run), (
            "maintenance touches must not admit a purged run"
        )
        assert cache.maintenance_bypasses == 1
        # A query-intent load still works.
        assert cache.load_run(run) is True
        assert cache.is_run_cached(run)

    def test_release_after_query_bypasses_for_maintenance(self):
        index, cache = self.make_manager()
        run = index.run_lists[Zone.GROOMED].snapshot()[0]
        cache.set_cache_level(-1)  # everything purged
        cache.load_run(run)  # query pulled the run in transiently
        assert cache.is_run_cached(run)
        with index.hierarchy.reading_as(ReadIntent.MAINTENANCE):
            cache.release_after_query([run])
        assert cache.is_run_cached(run), (
            "a maintenance release must not evict query-warmed blocks"
        )
        assert cache.maintenance_bypasses == 1
        cache.release_after_query([run])
        assert not cache.is_run_cached(run)

    def test_policy_loads_are_pinned_to_query_intent(self):
        # The manager's own purge/load policy is a deliberate admission;
        # an ambient maintenance scope must not dissolve it into a no-op
        # while the bookkeeping still advances.
        index, cache = self.make_manager()
        run = index.run_lists[Zone.GROOMED].snapshot()[0]
        with index.hierarchy.reading_as(ReadIntent.MAINTENANCE):
            cache.set_cache_level(-1)
            assert not cache.is_run_cached(run)
            cache.set_cache_level(index.config.levels.total_levels - 1)
            assert cache.is_run_cached(run), (
                "set_cache_level must actually load runs even under an "
                "ambient maintenance scope"
            )


class TestRecoveryIntent:
    def test_recovery_validation_is_maintenance_and_promotion_free(self):
        index = build_index("rec", num_runs=2)
        index.hierarchy.crash_local_tiers()
        before = index.hierarchy.stats.intents[
            ReadIntent.MAINTENANCE
        ].snapshot()
        state = index.recover()
        assert state.runs_by_zone[Zone.GROOMED]
        delta = index.hierarchy.stats.intents[ReadIntent.MAINTENANCE].diff(
            before
        )
        assert delta.reads > 0
        assert delta.promotions == 0
        # Recovery left the SSD cache empty: runs come back lazily.
        assert not list(index.hierarchy.ssd.block_ids())
