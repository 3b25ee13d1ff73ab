"""Tests for the evolve operation (paper section 5.4) and its journal."""

import pytest

from repro.core.builder import RunBuilder
from repro.core.definition import i1_definition
from repro.core.entry import Zone
from repro.core.evolve import EvolveController, EvolveError, Watermark
from repro.core.ids import RunIdAllocator
from repro.core.journal import Checkpoint, MetadataJournal
from repro.core.levels import LevelConfig
from repro.core.runlist import RunList
from repro.storage.hierarchy import StorageHierarchy

from tests.conftest import latest_checkpoint, make_entries, rid_map

DEF = i1_definition()


def setup(journal=True):
    hierarchy = StorageHierarchy()
    config = LevelConfig(groomed_levels=3, post_groomed_levels=2,
                         max_runs_per_level=2, size_ratio=2)
    builder = RunBuilder(DEF, hierarchy, data_block_bytes=1024)
    lists = {Zone.GROOMED: RunList("g"), Zone.POST_GROOMED: RunList("p")}
    allocator = RunIdAllocator("e")
    watermark = Watermark()
    ctrl = EvolveController(
        config, builder, hierarchy, allocator, lists, watermark,
        journal=MetadataJournal(hierarchy, "meta") if journal else None,
    )
    return ctrl, hierarchy, lists, builder, allocator, watermark


def groomed_run(builder, allocator, lists, gid_lo, gid_hi, keys, ts_start):
    run = builder.build(
        allocator.allocate(Zone.GROOMED),
        make_entries(DEF, keys, begin_ts_start=ts_start, zone=Zone.GROOMED),
        Zone.GROOMED, 0, gid_lo, gid_hi,
    )
    lists[Zone.GROOMED].push_front(run)
    return run


class TestWatermark:
    def test_advance_monotonic(self):
        w = Watermark()
        w.advance(5)
        assert w.value == 5
        with pytest.raises(EvolveError):
            w.advance(4)

    def test_advance_equal_allowed(self):
        w = Watermark()
        assert w.value == -1
        w.advance(3)
        w.advance(3)
        assert w.value == 3


class TestEvolveOperation:
    def test_three_steps_effects(self):
        ctrl, hierarchy, lists, builder, allocator, watermark = setup()
        old = groomed_run(builder, allocator, lists, 0, 4, range(20), 1)
        pg_entries = make_entries(DEF, range(20), 1, Zone.POST_GROOMED, 100)
        result = ctrl.evolve_streaming(1, rid_map(pg_entries), 0, 4)
        # step 1: post-groomed run published
        pg = lists[Zone.POST_GROOMED].snapshot()
        assert len(pg) == 1 and pg[0].run_id == result.new_run_id
        assert pg[0].level == ctrl.config.first_post_groomed_level
        # step 2: watermark advanced
        assert watermark.value == 4
        # step 3: obsolete run collected and physically deleted
        assert old.run_id in result.collected_run_ids
        assert lists[Zone.GROOMED].snapshot() == []
        assert not hierarchy.shared.contains(old.header_block_id())

    def test_partially_covered_run_survives(self):
        ctrl, _, lists, builder, allocator, watermark = setup()
        straddler = groomed_run(builder, allocator, lists, 3, 6, range(10), 1)
        ctrl.evolve_streaming(
            1, rid_map(make_entries(DEF, range(5), 1, Zone.POST_GROOMED, 100)), 0, 4
        )
        # max_groomed_id 6 > watermark 4: must NOT be collected.
        assert [r.run_id for r in lists[Zone.GROOMED].snapshot()] == [straddler.run_id]

    def test_psn_order_enforced(self):
        ctrl, _, _, _, _, _ = setup()
        with pytest.raises(EvolveError):
            ctrl.evolve_streaming(2, rid_map([]), 0, 0)  # expected PSN 1
        ctrl.evolve_streaming(1, rid_map([]), 0, 0)
        with pytest.raises(EvolveError):
            ctrl.evolve_streaming(1, rid_map([]), 1, 1)  # replay rejected
        ctrl.evolve_streaming(2, rid_map([]), 1, 1)
        assert ctrl.indexed_psn == 2

    def test_watermark_never_regresses_on_small_evolve(self):
        ctrl, _, _, _, _, watermark = setup()
        ctrl.evolve_streaming(1, rid_map([]), 0, 10)
        # A malformed range: the watermark holds at 10.
        ctrl.evolve_streaming(2, rid_map([]), 11, 8)
        assert watermark.value == 10


class TestDuplicatesBetweenSteps:
    def test_index_valid_between_each_step(self):
        """Run each sub-operation manually; after every step a query over
        (groomed-filtered + post-groomed) runs must see each key exactly
        once after reconciliation -- duplicates are physical, not logical."""
        from repro.core.query import QueryExecutor, RangeScanQuery

        ctrl, _, lists, builder, allocator, watermark = setup()
        groomed_run(builder, allocator, lists, 0, 4, range(10), 1)

        def collect():
            groomed = lists[Zone.GROOMED].snapshot()
            wm = watermark.value
            post = lists[Zone.POST_GROOMED].snapshot()
            return [r for r in groomed if r.max_groomed_id > wm] + post

        executor = QueryExecutor(DEF, collect)
        query = RangeScanQuery(equality_values=(3,), query_ts=1 << 40)

        def assert_one_result():
            hits = executor.scan(*query)
            assert [e.equality_values for e in hits] == [(3,)]

        assert_one_result()
        ctrl.step1_build_run(
            rid_map(make_entries(DEF, range(10), 1, Zone.POST_GROOMED, 100)), 0, 4
        )
        assert_one_result()  # duplicate exists physically; reconciled away
        ctrl.step2_advance_watermark(4)
        assert_one_result()
        ctrl.step3_collect_obsolete()
        assert_one_result()


class TestJournal:
    def test_checkpoint_appended_per_evolve(self):
        ctrl, hierarchy, _, _, _, _ = setup()
        ctrl.evolve_streaming(1, rid_map([]), 0, 3)
        ctrl.evolve_streaming(2, rid_map([]), 4, 7)
        latest = latest_checkpoint(ctrl.journal)
        assert latest == Checkpoint(indexed_psn=2, max_covered_groomed_id=7)

    def test_journal_trims_old_checkpoints(self):
        ctrl, hierarchy, _, _, _, _ = setup()
        for psn in range(1, 10):
            ctrl.evolve_streaming(psn, rid_map([]), psn, psn)
        ids = hierarchy.shared.namespace_block_ids("meta")
        assert len(ids) <= 4

    def test_restore(self):
        ctrl, _, _, _, _, watermark = setup()
        ctrl.restore(Checkpoint(indexed_psn=7, max_covered_groomed_id=42))
        assert ctrl.indexed_psn == 7
        assert watermark.value == 42

    def test_journal_survives_local_crash(self):
        ctrl, hierarchy, _, _, _, _ = setup()
        ctrl.evolve_streaming(1, rid_map([]), 0, 5)
        hierarchy.crash_local_tiers()
        journal = MetadataJournal(hierarchy, "meta")
        assert latest_checkpoint(journal).max_covered_groomed_id == 5

    def test_empty_journal_latest_none(self):
        hierarchy = StorageHierarchy()
        assert latest_checkpoint(MetadataJournal(hierarchy, "meta")) is None
