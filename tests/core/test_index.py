"""Integration tests for the UmziIndex facade."""

import pytest

from repro.core.definition import i1_definition, i2_definition
from repro.core.entry import RID, Zone
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.core.query import PointLookup, RangeScanQuery

from tests.conftest import key_of, make_entries, rid_map

DEF = i1_definition()


def small_index(**overrides):
    levels = LevelConfig(
        groomed_levels=3, post_groomed_levels=2,
        max_runs_per_level=2, size_ratio=2,
        **({k: v for k, v in overrides.items() if k in ("non_persisted_levels",)}),
    )
    config = UmziConfig(name="ti", levels=levels, data_block_bytes=1024)
    return UmziIndex(DEF, config=config)


def feed_runs(index, run_count, keys_per_run=10):
    ts = 1
    for gid in range(run_count):
        keys = range(gid * keys_per_run, (gid + 1) * keys_per_run)
        index.add_groomed_run(make_entries(DEF, keys, ts), gid, gid)
        ts += keys_per_run
    return run_count * keys_per_run


class TestBuildAndQuery:
    def test_runs_accumulate_and_query(self):
        index = small_index()
        total = feed_runs(index, 2)
        assert index.stats().total_entries == total
        eq, sort = key_of(DEF, 5)
        assert index.lookup(eq, sort) is not None

    def test_maintenance_reduces_run_count(self):
        index = small_index()
        feed_runs(index, 4)
        before = index.stats().total_runs
        merges = index.run_maintenance()
        assert merges
        assert index.stats().total_runs < before
        # Every key still answerable after merging.
        for k in (0, 15, 39):
            eq, sort = key_of(DEF, k)
            assert index.lookup(eq, sort) is not None

    def test_merge_step_returns_none_when_stable(self):
        index = small_index()
        feed_runs(index, 1)
        assert index.merge_step() is None

    def test_scan_across_runs(self):
        index = small_index()
        feed_runs(index, 3)
        eq, _ = key_of(DEF, 12)
        hits = index.scan(eq, (12,), (12,))
        assert len(hits) == 1


class TestEvolveIntegration:
    def test_evolve_switches_rids(self):
        index = small_index()
        feed_runs(index, 2)
        pg_entries = make_entries(DEF, range(20), 1, Zone.POST_GROOMED, 100)
        index.evolve_streaming(1, rid_map(pg_entries), 0, 1)
        eq, sort = key_of(DEF, 5)
        hit = index.lookup(eq, sort)
        assert hit.rid.zone is Zone.POST_GROOMED
        assert index.stats().max_covered_groomed_id == 1

    def test_watermark_filters_candidates(self):
        index = small_index()
        feed_runs(index, 2)
        index.evolve_streaming(
            1, rid_map(make_entries(DEF, range(20), 1, Zone.POST_GROOMED, 100)), 0, 1
        )
        candidates = index.visible_runs()
        assert all(
            r.zone is Zone.POST_GROOMED or r.max_groomed_id > 1 for r in candidates
        )

    def test_indexed_psn_tracks(self):
        index = small_index()
        feed_runs(index, 1)
        assert index.indexed_psn == 0
        index.evolve_streaming(1, rid_map([]), 0, 0)
        assert index.indexed_psn == 1


class TestStats:
    def test_stats_shape(self):
        index = small_index()
        feed_runs(index, 2)
        stats = index.stats()
        assert stats.groomed_run_count == 2
        assert stats.post_groomed_run_count == 0
        assert len(stats.levels) == index.config.levels.total_levels
        assert "eq0" in stats.definition
        text = stats.format_table()
        assert "GROOMED" in text and "level" in text

    def test_cached_fraction_initially_full(self):
        index = small_index()
        feed_runs(index, 1)
        assert index.stats().cached_run_fraction == 1.0


class TestDifferentDefinitions:
    def test_i2_point_lookup(self):
        definition = i2_definition()
        index = UmziIndex(definition, config=UmziConfig(name="i2t"))
        entries = make_entries(definition, range(10))
        index.add_groomed_run(entries, 0, 0)
        hit = index.lookup((3, 4), ())  # I2: two equality columns, no sort
        assert hit is not None
        assert hit.include_values == (30,)

    def test_make_entry_validates(self):
        index = small_index()
        with pytest.raises(Exception):
            index.make_entry((1,), (), (1,), 1, RID(Zone.GROOMED, 0, 0))


class TestAblationFlags:
    def test_synopsis_and_offset_array_flags_preserve_results(self):
        for use_synopsis in (True, False):
            for use_offset_array in (True, False):
                config = UmziConfig(
                    name=f"fl-{use_synopsis}-{use_offset_array}",
                    use_synopsis=use_synopsis,
                    use_offset_array=use_offset_array,
                )
                index = UmziIndex(DEF, config=config)
                index.add_groomed_run(make_entries(DEF, range(30)), 0, 0)
                eq, sort = key_of(DEF, 17)
                assert index.lookup(eq, sort) is not None
