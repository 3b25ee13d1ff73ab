"""Maintenance-aware cache behaviour end to end.

The scan-thrashing scenario ROADMAP flagged after PR 2: a streaming evolve
reads entire (possibly purged) groomed runs through the normal hierarchy
path.  Those reads must not promote blocks into the SSD cache or churn the
cache manager's accounting.
"""

from repro.core.definition import ColumnSpec
from repro.core.entry import RID, Zone
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.core.query import MAX_QUERY_TS, QueryExecutor
from repro.storage.metrics import ReadIntent
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.schema import IndexSpec, TableSchema

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

    def test_sweep_probes_still_memoize_views(self):
        # The post-groom sweep's batched lookups read as MAINTENANCE but
        # probe the same block many times (binary search): they memoize
        # like a query's, or every probe would re-fetch its block.
        index = build_index("sweep-probes", num_runs=1, entries_per_run=400)
        run = index.run_lists[Zone.GROOMED].snapshot()[0]
        run.drop_decode_cache()
        keys = list(range(0, run.entry_count, 7))
        executor = QueryExecutor(index.definition, collect_runs=lambda: [run])
        stats = index.hierarchy.stats.intents[ReadIntent.MAINTENANCE]
        before = stats.snapshot()
        hits = executor.batch_hits(
            [keys, keys], MAX_QUERY_TS, intent=ReadIntent.MAINTENANCE
        )
        delta = stats.diff(before)
        assert all(hits)
        assert run._views, "the sweep's probes must memoize views"
        assert delta.reads <= run.header.num_data_blocks, (
            f"{delta.reads} block reads for probes over "
            f"{run.header.num_data_blocks} blocks; views must be reused"
        )
        assert all(view.keys is None for view in run._views.values())


    def test_a_stream_reuses_a_memoized_view_without_a_read(self):
        # A one-pass stream over a block a query memoized takes the view;
        # any other block is one MAINTENANCE read, left unmemoized.
        index = build_index("stream-reuse", num_runs=1)
        run = index.run_lists[Zone.GROOMED].snapshot()[0]
        run.drop_decode_cache()
        view = run.block_view(0)
        stats = index.hierarchy.stats.intents
        before = {intent: stats[intent].snapshot() for intent in ReadIntent}
        keys, blobs = run.block_columns(0)
        assert len(keys) == len(blobs) == view.count
        assert all(stats[i].diff(before[i]).reads == 0 for i in ReadIntent)
        run.block_columns(1)
        assert stats[ReadIntent.MAINTENANCE].diff(
            before[ReadIntent.MAINTENANCE]
        ).reads == 1
        assert stats[ReadIntent.QUERY].diff(before[ReadIntent.QUERY]).reads == 0
        assert list(run._views) == [0]

class TestSweepAndCachePolicy:
    """The post-groom sweep next to the cache manager's own decisions."""

    def purged_post_groomed_run(self, name):
        index = build_index(name)
        index.evolve_streaming(1, new_rid_of, 0, 2)
        (run,) = index.run_lists[Zone.POST_GROOMED].snapshot()
        index.cache.set_cache_level(-1)
        assert not index.cache.is_run_cached(run)
        return index, run

    def sweep(self, index):
        keys = list(range(0, 600, 7))
        hits = index.post_groomed_batch_lookup([keys, keys], MAX_QUERY_TS)
        assert all(hits)

    def test_the_sweep_leaves_query_warmed_blocks_cached(self):
        # The sweep's executor has no exit hook: its reads never release
        # blocks a query pulled into a purged level.
        index, run = self.purged_post_groomed_run("sweep-release")
        assert index.cache.load_run(run)  # a query pulled the run in
        stats = index.hierarchy.stats.intents[ReadIntent.MAINTENANCE]
        before = stats.snapshot()
        self.sweep(index)
        delta = stats.diff(before)
        assert delta.reads == delta.ssd_hits > 0
        assert index.cache.is_run_cached(run), (
            "a maintenance sweep must not evict query-warmed blocks"
        )
        index.cache.release_after_query([run])  # a query's exit releases
        assert not index.cache.is_run_cached(run)

    def test_policy_loads_admit_a_run_the_sweep_read(self):
        # The sweep reads a purged run without admitting a block or
        # keeping a view; the manager's own load still brings it in.
        index, run = self.purged_post_groomed_run("sweep-load")
        stats = index.hierarchy.stats.intents[ReadIntent.MAINTENANCE]
        before = stats.snapshot()
        self.sweep(index)
        delta = stats.diff(before)
        assert delta.shared_reads == run.header.num_data_blocks
        assert delta.promotions == 0
        assert not run._views and not run.fetched_blocks
        assert not index.cache.is_run_cached(run)
        after_sweep = stats.snapshot()
        index.cache.set_cache_level(index.config.levels.total_levels - 1)
        assert index.cache.is_run_cached(run)
        assert stats.diff(after_sweep).reads == 0


    def test_the_sweep_keeps_nothing_of_blocks_no_tier_holds(self):
        # A 60-device shard whose post-groomed runs are all purged: the
        # post-groom's sweep reads their blocks as MAINTENANCE, from
        # shared storage, and must leave no view or fetched block behind.
        schema = TableSchema(
            name="dev", columns=(ColumnSpec("device"), ColumnSpec("msg")),
            primary_key=("device",), sharding_key=("device",),
        )
        shard = WildfireShard(
            schema, IndexSpec((), ("device",)),
            config=ShardConfig(post_groom_every=2),
        )
        for msg in range(6):
            if msg == 4:
                shard.index.cache.set_cache_level(-1)
                stats = shard.hierarchy.stats.intents[ReadIntent.MAINTENANCE]
                before = stats.snapshot()
            shard.ingest([(device, msg) for device in range(60)])
            shard.tick()
        assert stats.diff(before).shared_reads > 0
        runs = shard.index.run_lists[Zone.POST_GROOMED].snapshot()
        assert len(runs) > 1
        for run in runs:
            assert run.level > shard.index.cache.current_cached_level
            held = {
                i for i in range(run.header.num_data_blocks)
                if shard.hierarchy.is_cached(run.data_block_id(i))
            }
            assert set(run._views) <= held and run.fetched_blocks <= held, run


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
