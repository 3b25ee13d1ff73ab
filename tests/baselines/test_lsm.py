"""Tests for the classic fixed-RID LSM baseline."""

import pytest

from repro.baselines.lsm import ClassicLSMIndex
from repro.core.definition import i1_definition
from repro.core.entry import RID, RID_BYTES, Zone, begin_ts_of_sort_key

from tests.conftest import make_entry

DEF = i1_definition()


def key_bytes(k):
    return make_entry(DEF, k, 1).key_bytes(DEF)


def run_count(index):
    return sum(len(runs) for runs in index._levels)


def entry_count(index):
    """Entries the index holds, duplicates included: memtable + runs."""
    return len(index._memtable) + sum(
        run.entry_count for runs in index._levels for run in runs
    )


class TestMemtableAndFlush:
    def test_lookup_from_memtable(self):
        index = ClassicLSMIndex(DEF, memtable_limit=100)
        index.insert(make_entry(DEF, 1, 10))
        assert index.lookup(key_bytes(1)).begin_ts == 10
        assert index.flushes == 0

    def test_flush_at_limit(self):
        index = ClassicLSMIndex(DEF, memtable_limit=4)
        for k in range(4):
            index.insert(make_entry(DEF, k, k + 1))
        assert index.flushes == 1
        assert index.lookup(key_bytes(2)) is not None

    def test_manual_flush(self):
        index = ClassicLSMIndex(DEF, memtable_limit=100)
        index.insert(make_entry(DEF, 1, 10))
        index.flush()
        assert index.flushes == 1
        assert run_count(index) >= 1


class TestLeveling:
    def test_one_run_per_level(self):
        """200 entries over 2-entry flushes fill level 1 (capacity 32) and
        level 2 (capacity 128) past their bounds, so full runs cascade
        to level 3 and every level still holds at most one run."""
        index = ClassicLSMIndex(DEF, memtable_limit=2)
        for k in range(200):
            index.insert(make_entry(DEF, k, k + 1))
        assert len(index._levels) >= 4 and index._levels[3]
        for level_runs in index._levels:
            assert len(level_runs) <= 1
        assert entry_count(index) == 200
        for k in (0, 100, 199):
            assert index.lookup(key_bytes(k)).begin_ts == k + 1

    def test_entry_count_preserved(self):
        index = ClassicLSMIndex(DEF, memtable_limit=4)
        for k in range(30):
            index.insert(make_entry(DEF, k, k + 1))
        assert entry_count(index) == 30


class TestVersioning:
    def test_latest_version_wins(self):
        index = ClassicLSMIndex(DEF, memtable_limit=2)
        index.insert(make_entry(DEF, 1, 10, offset=0))
        index.insert(make_entry(DEF, 99, 11))  # forces flush
        index.insert(make_entry(DEF, 1, 20, offset=1))
        index.flush()
        assert index.lookup(key_bytes(1)).begin_ts == 20
        assert index.lookup(key_bytes(1), query_ts=15).begin_ts == 10

    def test_scan(self):
        index = ClassicLSMIndex(DEF, memtable_limit=4)
        for k in range(10):
            index.insert(make_entry(DEF, k, k + 1))
        hits = index.scan(b"", b"")
        assert len(hits) == 10


class TestFixedRIDWeakness:
    def test_stale_rids_after_zone_migration(self):
        """Data 'evolves': records move and get new RIDs.  The classic LSM
        index keeps serving the old groomed-zone RIDs -- the dangling
        reference problem Umzi's evolve operation exists to solve."""
        index = ClassicLSMIndex(DEF, memtable_limit=4)
        for k in range(8):
            index.insert(make_entry(DEF, k, k + 1, zone=Zone.GROOMED, block_id=0))
        index.flush()
        # Zone migration happened externally; block 0 is deprecated.
        hit = index.lookup(key_bytes(3))
        assert hit.rid.zone is Zone.GROOMED  # stale!

    def test_rebuild_rewrites_everything(self):
        index = ClassicLSMIndex(DEF, memtable_limit=4)
        for k in range(16):
            index.insert(make_entry(DEF, k, k + 1, offset=k))
        index.flush()

        def remap_raw(sort_key, blob):
            old_rid, _ = RID.from_bytes(blob, len(blob) - RID_BYTES)
            return RID(Zone.POST_GROOMED, 100, old_rid.offset)

        rewritten = index.rebuild_with_rids(remap_raw=remap_raw)
        assert rewritten == 16  # full write amplification
        assert entry_count(index) == 16
        for k in range(16):
            assert index.lookup(key_bytes(k)).rid == RID(Zone.POST_GROOMED, 100, k)

    def test_rebuild_with_partial_remap(self):
        index = ClassicLSMIndex(DEF, memtable_limit=4)
        for k in range(16):
            index.insert(make_entry(DEF, k, k + 1))
        index.flush()

        def remap_raw(sort_key, blob):
            if begin_ts_of_sort_key(sort_key) <= 8:
                return RID(Zone.POST_GROOMED, 100, 0)
            return None

        assert index.rebuild_with_rids(remap_raw=remap_raw) == 8
        assert entry_count(index) == 16
        for k in range(16):
            hit = index.lookup(key_bytes(k))
            assert hit.begin_ts == k + 1
            assert hit.rid.zone is (Zone.POST_GROOMED if k < 8 else Zone.GROOMED)

    def test_rebuild_collapses_physical_duplicates(self):
        """The same ``(key, beginTS)`` version in two runs survives the
        K-way blob merge once, and counts as rewritten once."""
        index = ClassicLSMIndex(DEF, memtable_limit=100)
        for _ in range(2):  # two runs at level 0, as no leveling merge leaves
            run = index._build_run([make_entry(DEF, k, k + 1) for k in range(4)], 0)
            index._install(run, 0)
        assert (run_count(index), entry_count(index)) == (2, 8)
        assert index.rebuild_with_rids(
            remap_raw=lambda sk, blob: RID(Zone.POST_GROOMED, 1, 0)
        ) == 4
        assert entry_count(index) == 4

    def test_raw_rebuild_is_zero_decode(self):
        """Raw rebuild must not materialize any IndexEntry (the last
        wholesale-decode maintenance site named in ROADMAP)."""
        index = ClassicLSMIndex(DEF, memtable_limit=4)
        for k in range(16):
            index.insert(make_entry(DEF, k, k + 1))
        index.flush()
        decode = index.hierarchy.stats.decode
        before = decode.snapshot()
        rewritten = index.rebuild_with_rids(
            remap_raw=lambda sort_key, blob: RID(Zone.POST_GROOMED, 7, 0)
        )
        assert rewritten == 16
        assert decode.diff(before).entry_decodes == 0
        hit = index.lookup(key_bytes(3))
        assert hit.rid.zone is Zone.POST_GROOMED

    def test_raw_rebuild_flushes_memtable_first(self):
        index = ClassicLSMIndex(DEF, memtable_limit=100)
        for k in range(4):
            index.insert(make_entry(DEF, k, k + 1))
        # Nothing flushed yet: the raw path must still cover these rows.
        assert index.rebuild_with_rids(
            remap_raw=lambda sk, blob: RID(Zone.POST_GROOMED, 1, 0)
        ) == 4
        assert entry_count(index) == 4
        assert index.lookup(key_bytes(0)).rid.zone is Zone.POST_GROOMED


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            ClassicLSMIndex(DEF, memtable_limit=0)
