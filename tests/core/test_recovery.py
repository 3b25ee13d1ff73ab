"""Tests for crash recovery (paper section 5.5), incl. failure injection."""

import pytest

from repro.core.definition import i1_definition
from repro.core.entry import Zone
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.storage.block import Block, BlockId

from tests.conftest import key_of, make_entries, rid_map

DEF = i1_definition()


def build_index(non_persisted=frozenset()):
    levels = LevelConfig(
        groomed_levels=3, post_groomed_levels=2,
        max_runs_per_level=2, size_ratio=2,
        non_persisted_levels=non_persisted,
    )
    return UmziIndex(DEF, config=UmziConfig(name="rec", levels=levels,
                                            data_block_bytes=1024))


def feed(index, run_count, keys_per_run=10):
    ts = 1
    for gid in range(run_count):
        keys = range(gid * keys_per_run, (gid + 1) * keys_per_run)
        index.add_groomed_run(make_entries(DEF, keys, ts), gid, gid)
        ts += keys_per_run


def answers(index, keys):
    out = {}
    for k in keys:
        eq, sort = key_of(DEF, k)
        hit = index.lookup(eq, sort)
        out[k] = None if hit is None else (hit.begin_ts, hit.rid)
    return out


class TestBasicRecovery:
    def test_recovery_restores_all_answers(self):
        index = build_index()
        feed(index, 3)
        index.run_maintenance()
        before = answers(index, range(30))
        index.hierarchy.crash_local_tiers()
        state = index.recover()
        assert answers(index, range(30)) == before
        assert not state.incomplete_run_ids

    def test_recovery_after_evolve_restores_watermark_and_psn(self):
        index = build_index()
        feed(index, 2)
        index.evolve_streaming(
            1, rid_map(make_entries(DEF, range(20), 1, Zone.POST_GROOMED, 100)), 0, 1
        )
        index.hierarchy.crash_local_tiers()
        index.recover()
        assert index.indexed_psn == 1
        assert index.watermark.value == 1
        eq, sort = key_of(DEF, 3)
        assert index.lookup(eq, sort).rid.zone is Zone.POST_GROOMED

    def test_recovery_on_empty_storage(self):
        index = build_index()
        state = index.recover()
        assert state.runs_by_zone[Zone.GROOMED] == []
        assert state.checkpoint is None


class TestOverlapResolution:
    def test_superseded_runs_deleted(self):
        """Simulate a crash after a merge wrote the merged run but before
        the old runs were deleted: recovery keeps the largest range."""
        index = build_index()
        feed(index, 2)
        merged = index.builder.build(
            index.allocator.allocate(Zone.GROOMED),
            make_entries(DEF, range(20)),
            Zone.GROOMED, 1, 0, 1,
        )
        # merged covers gids [0,1]; crash before list update + GC.
        index.hierarchy.crash_local_tiers()
        state = index.recover()
        groomed = state.runs_by_zone[Zone.GROOMED]
        assert [r.run_id for r in groomed] == [merged.run_id]
        assert len(state.deleted_run_ids) == 2

    def test_groomed_runs_under_watermark_dropped(self):
        index = build_index()
        feed(index, 3)
        index.evolve_streaming(
            1, rid_map(make_entries(DEF, range(20), 1, Zone.POST_GROOMED, 100)), 0, 1
        )
        index.hierarchy.crash_local_tiers()
        state = index.recover()
        for run in state.runs_by_zone[Zone.GROOMED]:
            assert run.max_groomed_id > 1


class TestFailureInjection:
    def test_incomplete_run_cleaned_up(self):
        """A run whose data blocks are missing (crash mid-build) must be
        detected and deleted."""
        index = build_index()
        feed(index, 2)
        victim = index.run_lists[Zone.GROOMED].snapshot()[0]
        # Simulate partial write: drop one data block from shared storage.
        index.hierarchy.shared.delete(victim.data_block_id(0))
        index.hierarchy.crash_local_tiers()
        state = index.recover()
        assert victim.run_id in state.incomplete_run_ids
        survivors = [r.run_id for r in state.runs_by_zone[Zone.GROOMED]]
        assert victim.run_id not in survivors

    def test_orphan_data_blocks_cleaned_up(self):
        index = build_index()
        feed(index, 1)
        orphan_ns = "rec-run-g-999999"
        index.hierarchy.shared.write(Block(BlockId(orphan_ns, 1), b"junk"))
        index.hierarchy.crash_local_tiers()
        state = index.recover()
        assert orphan_ns in state.incomplete_run_ids
        assert not index.hierarchy.shared.contains(BlockId(orphan_ns, 1))

    def test_crash_between_evolve_steps_no_data_loss(self):
        """Crash after step 1 (post-groomed run built) but before the
        watermark checkpoint: recovery must still answer every key, and
        duplicates must not produce double answers."""
        index = build_index()
        feed(index, 2)
        index.evolver.step1_build_run(
            rid_map(make_entries(DEF, range(20), 1, Zone.POST_GROOMED, 100)), 0, 1
        )
        # crash before step 2/3 and before the checkpoint write
        index.hierarchy.crash_local_tiers()
        index.recover()
        results = answers(index, range(20))
        assert all(v is not None for v in results.values())
        eq, _ = key_of(DEF, 7)
        hits = index.scan(eq, (7,), (7,))
        assert len(hits) == 1

    def test_non_persisted_levels_recovered_from_ancestors(self):
        index = build_index(non_persisted=frozenset({1}))
        feed(index, 2)
        index.run_maintenance()  # merges L0 pair into non-persisted L1
        stats = index.stats()
        assert any(not lv.persisted and lv.run_count for lv in stats.levels)
        before = answers(index, range(20))
        index.hierarchy.crash_local_tiers()
        index.recover()
        assert answers(index, range(20)) == before


class TestDoubleCrash:
    def test_recover_twice_is_stable(self):
        index = build_index()
        feed(index, 3)
        index.run_maintenance()
        index.hierarchy.crash_local_tiers()
        index.recover()
        first = answers(index, range(30))
        index.hierarchy.crash_local_tiers()
        index.recover()
        assert answers(index, range(30)) == first
