"""Tests for SSD cache management (paper section 6.2)."""

import pytest

from repro.core.builder import RunBuilder
from repro.core.cache import CacheManager
from repro.core.definition import i1_definition
from repro.core.entry import Zone
from repro.core.levels import LevelConfig
from repro.core.runlist import RunList
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.ssd import SSDTier

from tests.conftest import make_entries, run_entries

DEF = i1_definition()


def setup(ssd_capacity=None, high=0.85, low=0.60):
    hierarchy = StorageHierarchy(ssd=SSDTier(capacity_bytes=ssd_capacity))
    config = LevelConfig(groomed_levels=3, post_groomed_levels=2,
                         max_runs_per_level=2, size_ratio=2)
    lists = {Zone.GROOMED: RunList("g"), Zone.POST_GROOMED: RunList("p")}
    cache = CacheManager(config, hierarchy, lists, high_watermark=high, low_watermark=low)
    builder = RunBuilder(DEF, hierarchy, data_block_bytes=512)
    return cache, hierarchy, lists, builder


def add_run(builder, lists, level, gid, keys, cache=None, zone=Zone.GROOMED):
    write_through = cache.write_through(level) if cache else True
    run = builder.build(
        f"run-l{level}-g{gid}", make_entries(DEF, keys), zone, level, gid, gid,
        write_through_ssd=write_through,
    )
    lists[zone].push_front(run)
    return run


class TestPurgeAndLoad:
    def test_purge_drops_data_keeps_header(self):
        cache, hierarchy, lists, builder = setup()
        run = add_run(builder, lists, 0, 0, range(50))
        dropped = cache.purge_run(run)
        assert dropped == run.header.num_data_blocks
        assert hierarchy.is_cached(run.header_block_id())
        for i in range(run.header.num_data_blocks):
            assert not hierarchy.is_cached(run.data_block_id(i))
        assert not cache.is_run_cached(run)

    def test_purge_non_persisted_is_noop(self):
        cache, hierarchy, lists, builder = setup()
        run = builder.build(
            "np", make_entries(DEF, range(10)), Zone.GROOMED, 1, 0, 0,
            persisted=False,
        )
        assert cache.purge_run(run) == 0

    def test_load_restores_data_blocks(self):
        cache, hierarchy, lists, builder = setup()
        run = add_run(builder, lists, 0, 0, range(50))
        cache.purge_run(run)
        assert cache.load_run(run) is True
        assert cache.is_run_cached(run)

    def test_load_fails_without_space(self):
        cache, hierarchy, lists, builder = setup(ssd_capacity=64)
        run = builder.build(
            "big", make_entries(DEF, range(100)), Zone.GROOMED, 0, 0, 0,
            write_through_ssd=False,
        )
        assert cache.load_run(run) is False

    def test_queries_still_work_on_purged_runs(self):
        cache, hierarchy, lists, builder = setup()
        run = add_run(builder, lists, 0, 0, range(50))
        cache.purge_run(run)
        entries = run_entries(run)  # transparently refetched
        assert len(entries) == 50

    def test_release_after_query_drops_transients(self):
        cache, hierarchy, lists, builder = setup()
        run = add_run(builder, lists, 2, 0, range(50))
        cache.set_cache_level(1)  # run at level 2 is purged
        run.block_view(0)  # pulls the block back through shared storage
        assert hierarchy.ssd.contains(run.data_block_id(0))
        cache.release_after_query([run])
        assert not hierarchy.ssd.contains(run.data_block_id(0))


class TestWriteThrough:
    def test_below_cache_level_writes_through(self):
        cache, _, _, _ = setup()
        assert cache.write_through(0)
        assert cache.write_through(cache.current_cached_level)

    def test_above_cache_level_skips_ssd(self):
        cache, hierarchy, lists, builder = setup()
        cache.set_cache_level(1)
        assert not cache.write_through(2)
        run = add_run(builder, lists, 2, 0, range(10), cache=cache)
        assert not hierarchy.ssd.contains(run.data_block_id(0))


class TestManualCacheLevel:
    def test_set_cache_level_purges_above(self):
        cache, hierarchy, lists, builder = setup()
        low = add_run(builder, lists, 0, 1, range(20))
        high = add_run(builder, lists, 2, 0, range(20))
        cache.set_cache_level(1)
        assert cache.is_run_cached(low)
        assert not cache.is_run_cached(high)
        assert cache.is_purged_level(2)

    def test_set_cache_level_loads_below(self):
        cache, hierarchy, lists, builder = setup()
        run = add_run(builder, lists, 0, 0, range(20))
        cache.set_cache_level(-1)  # everything purged
        assert not cache.is_run_cached(run)
        cache.set_cache_level(4)  # everything loaded back
        assert cache.is_run_cached(run)

    def test_manual_mode_disables_dynamic_policy(self):
        cache, hierarchy, lists, builder = setup(ssd_capacity=100_000)
        add_run(builder, lists, 0, 0, range(10))
        cache.set_cache_level(0)
        level_before = cache.current_cached_level
        cache.maintain()  # must not touch anything
        assert cache.current_cached_level == level_before

    def test_invalid_level_rejected(self):
        cache, _, _, _ = setup()
        with pytest.raises(ValueError):
            cache.set_cache_level(99)

    def test_cached_fraction(self):
        cache, hierarchy, lists, builder = setup()
        add_run(builder, lists, 0, 0, range(10))
        add_run(builder, lists, 2, 1, range(10))
        assert cache.cached_fraction() == 1.0
        cache.set_cache_level(1)
        assert cache.cached_fraction() == 0.5


class TestDynamicPolicy:
    def test_pressure_purges_old_levels_first(self):
        cache, hierarchy, lists, builder = setup(ssd_capacity=30_000, high=0.5, low=0.1)
        old = add_run(builder, lists, 2, 0, range(120), cache=cache)
        new = add_run(builder, lists, 0, 1, range(120), cache=cache)
        assert hierarchy.ssd.utilization() >= 0.5
        cache.maintain()
        assert not cache.is_run_cached(old)
        assert cache.is_run_cached(new)

    def test_unbounded_ssd_never_purges(self):
        cache, hierarchy, lists, builder = setup(ssd_capacity=None)
        run = add_run(builder, lists, 2, 0, range(100))
        cache.maintain()
        assert cache.is_run_cached(run)

    def test_spacious_ssd_loads_purged_levels(self):
        cache, hierarchy, lists, builder = setup(
            ssd_capacity=1_000_000, high=0.99, low=0.99
        )
        run = add_run(builder, lists, 4, 0, range(50), zone=Zone.POST_GROOMED)
        cache.set_cache_level(3)
        assert not cache.is_run_cached(run)
        cache.resume_dynamic_policy()
        cache.maintain()
        assert cache.is_run_cached(run)
        assert cache.current_cached_level == 4
