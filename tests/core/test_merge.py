"""Tests for the hybrid merge policy and execution (paper section 5.3)."""

import pytest

from repro.core.builder import RunBuilder
from repro.core.definition import i1_definition
from repro.core.entry import IndexEntry, RID, Zone
from repro.core.ids import RunIdAllocator
from repro.core.levels import LevelConfig
from repro.core.merge import MergeController, merge_entry_blob_streams
from repro.core.runlist import RunList
from repro.storage.hierarchy import StorageHierarchy

from tests.conftest import make_entries
from tests.reference_merge import decode_pairs

DEF = i1_definition()


def controller(non_persisted=frozenset(), k=2, t=2):
    hierarchy = StorageHierarchy()
    config = LevelConfig(
        groomed_levels=4, post_groomed_levels=2,
        max_runs_per_level=k, size_ratio=t,
        non_persisted_levels=non_persisted,
    )
    builder = RunBuilder(DEF, hierarchy, data_block_bytes=1024)
    lists = {Zone.GROOMED: RunList("g"), Zone.POST_GROOMED: RunList("p")}
    ctrl = MergeController(
        config, builder, hierarchy, RunIdAllocator("m"), lists
    )
    return ctrl, hierarchy, lists


def add_level0_run(ctrl, lists, gid, keys, ts_start):
    run = ctrl.builder.build(
        ctrl.allocator.allocate(Zone.GROOMED),
        make_entries(DEF, keys, begin_ts_start=ts_start),
        Zone.GROOMED, 0, gid, gid,
    )
    lists[Zone.GROOMED].push_front(run)
    return run


class TestMergeEntryStreams:
    def test_exact_duplicates_dropped_distinct_versions_kept(self):
        builder = RunBuilder(DEF, StorageHierarchy())
        v1 = IndexEntry.create(DEF, (1,), (1,), (0,), 10, RID(Zone.GROOMED, 0, 0))
        v2 = IndexEntry.create(DEF, (1,), (1,), (0,), 20, RID(Zone.GROOMED, 1, 0))
        dup = IndexEntry.create(DEF, (1,), (1,), (0,), 20, RID(Zone.GROOMED, 1, 0))
        run_a = builder.build("a", [v2, v1], Zone.GROOMED, 0, 0, 0)
        run_b = builder.build("b", [dup], Zone.GROOMED, 0, 1, 1)
        merged = decode_pairs(DEF, merge_entry_blob_streams(DEF, [run_b, run_a]))
        assert [e.begin_ts for e in merged] == [20, 10]

    def test_global_order_maintained(self):
        builder = RunBuilder(DEF, StorageHierarchy())
        run_a = builder.build("a", make_entries(DEF, [1, 5, 9]), Zone.GROOMED, 0, 0, 0)
        run_b = builder.build("b", make_entries(DEF, [2, 6, 8]), Zone.GROOMED, 0, 1, 1)
        merged = decode_pairs(DEF, merge_entry_blob_streams(DEF, [run_b, run_a]))
        keys = [e.sort_key(DEF) for e in merged]
        assert keys == sorted(keys)


class TestPolicyTrigger:
    def test_no_merge_below_k(self):
        ctrl, _, lists = controller(k=3)
        add_level0_run(ctrl, lists, 0, range(10), 1)
        add_level0_run(ctrl, lists, 1, range(10, 20), 11)
        assert ctrl.level_needing_merge(Zone.GROOMED) is None
        assert ctrl.merge_step(Zone.GROOMED) is None

    def test_merge_at_k(self):
        ctrl, _, lists = controller(k=2)
        add_level0_run(ctrl, lists, 0, range(10), 1)
        add_level0_run(ctrl, lists, 1, range(10, 20), 11)
        result = ctrl.merge_step(Zone.GROOMED)
        assert result is not None
        assert result.source_level == 0 and result.target_level == 1
        assert result.output_entries == 20

    def test_last_level_never_merges_out_of_zone(self):
        ctrl, _, lists = controller(k=1)
        config = ctrl.config
        last = config.last_level_of(Zone.GROOMED)
        run = ctrl.builder.build(
            "x", make_entries(DEF, range(4)), Zone.GROOMED, last, 0, 0
        )
        lists[Zone.GROOMED].push_front(run)
        assert ctrl.level_needing_merge(Zone.GROOMED) is None


class TestActiveRunLifecycle:
    def test_merged_run_becomes_active(self):
        ctrl, _, lists = controller(k=2, t=4)
        add_level0_run(ctrl, lists, 0, range(5), 1)
        add_level0_run(ctrl, lists, 1, range(5, 10), 6)
        result = ctrl.merge_step(Zone.GROOMED)
        assert not result.output_marked_inactive
        assert ctrl.active_run_id(1) == result.output_run_id

    def test_incoming_runs_merge_into_active(self):
        ctrl, _, lists = controller(k=2, t=100)
        add_level0_run(ctrl, lists, 0, range(5), 1)
        add_level0_run(ctrl, lists, 1, range(5, 10), 6)
        first = ctrl.merge_step(Zone.GROOMED)
        add_level0_run(ctrl, lists, 2, range(10, 15), 11)
        add_level0_run(ctrl, lists, 3, range(15, 20), 16)
        second = ctrl.merge_step(Zone.GROOMED)
        assert first.output_run_id in second.input_run_ids
        assert second.output_entries == 20
        # Level 1 now holds exactly the new active run.
        assert len(ctrl.runs_at_level(Zone.GROOMED, 1)) == 1

    def test_full_active_marked_inactive(self):
        ctrl, _, lists = controller(k=2, t=2)
        # Two runs of 5 merge into 10 >= T(2) * 5 -> immediately inactive.
        add_level0_run(ctrl, lists, 0, range(5), 1)
        add_level0_run(ctrl, lists, 1, range(5, 10), 6)
        result = ctrl.merge_step(Zone.GROOMED)
        assert result.output_marked_inactive
        assert ctrl.active_run_id(1) is None

    def test_cascading_merges(self):
        ctrl, _, lists = controller(k=2, t=2)
        gid = 0
        for batch in range(4):  # 4 L0 runs -> 2 L1 inactive -> L2 merge
            add_level0_run(ctrl, lists, gid, range(gid * 5, gid * 5 + 5), gid * 5 + 1)
            gid += 1
        results = ctrl.merge_until_stable(Zone.GROOMED)
        assert any(r.target_level == 2 for r in results)
        total = sum(r.entry_count for r in lists[Zone.GROOMED].snapshot())
        assert total == 20  # nothing lost


class TestGarbageCollection:
    def test_merged_inputs_deleted_from_storage(self):
        ctrl, hierarchy, lists = controller(k=2)
        r0 = add_level0_run(ctrl, lists, 0, range(5), 1)
        r1 = add_level0_run(ctrl, lists, 1, range(5, 10), 6)
        result = ctrl.merge_step(Zone.GROOMED)
        assert set(result.deleted_run_ids) == {r0.run_id, r1.run_id}
        assert not hierarchy.shared.contains(r0.header_block_id())

    def test_groomed_id_range_union(self):
        ctrl, _, lists = controller(k=2)
        add_level0_run(ctrl, lists, 3, range(5), 1)
        add_level0_run(ctrl, lists, 7, range(5, 10), 6)
        ctrl.merge_step(Zone.GROOMED)
        merged = lists[Zone.GROOMED].snapshot()[0]
        assert (merged.min_groomed_id, merged.max_groomed_id) == (3, 7)


class TestNonPersistedLevels:
    def test_output_non_persisted_retains_persisted_inputs(self):
        ctrl, hierarchy, lists = controller(non_persisted=frozenset({1}), k=2)
        r0 = add_level0_run(ctrl, lists, 0, range(5), 1)
        r1 = add_level0_run(ctrl, lists, 1, range(5, 10), 6)
        result = ctrl.merge_step(Zone.GROOMED)
        new_run = lists[Zone.GROOMED].snapshot()[0]
        assert not new_run.header.persisted
        assert set(new_run.header.ancestor_run_ids) == {r0.run_id, r1.run_id}
        # Ancestors stay in shared storage but leave the local cache.
        assert hierarchy.shared.contains(r0.header_block_id())
        assert not hierarchy.ssd.contains(r0.header_block_id())
        assert r0.run_id not in result.deleted_run_ids

    def test_ancestors_deleted_when_descendant_persists(self):
        ctrl, hierarchy, lists = controller(non_persisted=frozenset({1}), k=2, t=2)
        ids = []
        for gid in range(4):
            ids.append(add_level0_run(ctrl, lists, gid, range(gid * 5, gid * 5 + 5), gid * 5 + 1))
        results = ctrl.merge_until_stable(Zone.GROOMED)
        # The L2 output is persisted; every L0 ancestor must now be gone.
        assert any(r.target_level == 2 for r in results)
        for run in ids:
            assert not hierarchy.shared.contains(run.header_block_id())
        survivor = lists[Zone.GROOMED].snapshot()[0]
        assert survivor.header.persisted
        assert survivor.header.ancestor_run_ids == ()

    def test_ancestor_protector_blocks_deletion(self):
        protected = set()
        hierarchy = StorageHierarchy()
        config = LevelConfig(
            groomed_levels=4, post_groomed_levels=2,
            max_runs_per_level=2, size_ratio=2,
            non_persisted_levels=frozenset({1}),
        )
        builder = RunBuilder(DEF, hierarchy, data_block_bytes=1024)
        lists = {Zone.GROOMED: RunList("g"), Zone.POST_GROOMED: RunList("p")}
        ctrl = MergeController(
            config, builder, hierarchy, RunIdAllocator("m"), lists,
            ancestor_protector=lambda rid: rid in protected,
        )
        runs = []
        for gid in range(2):
            run = builder.build(
                ctrl.allocator.allocate(Zone.GROOMED),
                make_entries(DEF, range(gid * 5, gid * 5 + 5), gid * 5 + 1),
                Zone.GROOMED, 0, gid, gid,
            )
            lists[Zone.GROOMED].push_front(run)
            runs.append(run)
        protected.add(runs[0].run_id)
        ctrl.merge_step(Zone.GROOMED)  # into non-persisted L1: retained anyway
        for gid in range(2, 4):
            run = builder.build(
                ctrl.allocator.allocate(Zone.GROOMED),
                make_entries(DEF, range(gid * 5, gid * 5 + 5), gid * 5 + 1),
                Zone.GROOMED, 0, gid, gid,
            )
            lists[Zone.GROOMED].push_front(run)
        ctrl.merge_until_stable(Zone.GROOMED)
        # Protected ancestor survives; the unprotected one is deleted.
        assert hierarchy.shared.contains(runs[0].header_block_id())
        assert not hierarchy.shared.contains(runs[1].header_block_id())
