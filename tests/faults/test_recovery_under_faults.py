"""Recovery semantics under injected storage faults.

Covers the ISSUE 6 recovery hardening: idempotent recovery, the
entry-count tie-break for exact-coverage duplicates, checkpoint clamping
when a torn post-groomed persist makes the newest checkpoint over-claim,
and run-id allocator resume after a fresh-process restart.
"""

import pytest

from tests.conftest import make_entries, rid_map

from repro.core.definition import i1_definition
from repro.core.entry import Zone
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from tests.crash_harness import (
    CrashRecoveryDriver,
    collect_answers,
    generate_workload,
)
from repro.faults.plan import FaultPlan, TornWrite
from tests.fault_plans import generate_fault_plan
from repro.faults.storage import FaultyTier
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import IOStats


def small_config(name: str) -> UmziConfig:
    return UmziConfig(
        name=name,
        levels=LevelConfig(
            groomed_levels=2,
            post_groomed_levels=2,
            max_runs_per_level=2,
            size_ratio=2,
        ),
    )


def build_faulty_index(name: str, *torn: TornWrite):
    stats = IOStats()
    plan = FaultPlan(seed=0, torn_writes=tuple(torn))
    shared = FaultyTier(plan, run_prefix=f"{name}-run", stats=stats)
    hierarchy = StorageHierarchy(shared=shared, stats=stats)
    index = UmziIndex(
        i1_definition(), hierarchy=hierarchy, config=small_config(name)
    )
    return index, hierarchy


def fresh_process(index: UmziIndex):
    """Lose local tiers + all in-memory state; recover a new instance."""
    index.hierarchy.crash_local_tiers()
    revived = UmziIndex(
        index.definition, hierarchy=index.hierarchy, config=index.config
    )
    state = revived.recover()
    return revived, state


class TestIdempotence:
    @pytest.mark.parametrize("seed", [3, 5, 11])
    def test_second_recovery_changes_nothing(self, seed):
        """Recovering an already-recovered store is a fixpoint: same
        answers, and nothing left to delete."""
        definition = i1_definition()
        workload = generate_workload(seed)
        driver = CrashRecoveryDriver(
            definition, workload, plan=generate_fault_plan(seed)
        )
        first = driver.run()
        second_state = driver.recover_again()
        assert second_state.deleted_run_ids == []
        assert second_state.incomplete_run_ids == []
        assert collect_answers(driver.index, workload) == first.answers
        third_state = driver.recover_again()
        assert third_state.deleted_run_ids == []
        assert collect_answers(driver.index, workload) == first.answers


class TestEntryCountTieBreak:
    def test_thin_duplicate_never_shadows_populated_run(self):
        """Two post-groomed runs with *exactly* the same gid coverage (a
        replayed evolve after a crash produces these): recovery must keep
        the populated one, whichever order the namespace scan sees."""
        definition = i1_definition()
        index = UmziIndex(definition, config=small_config("tie"))
        index.add_groomed_run(make_entries(definition, keys=[1, 2, 3, 4, 5]), 1, 1)
        full = index.evolve_streaming(
            1,
            rid_map(make_entries(
                definition, keys=[1, 2, 3, 4, 5], zone=Zone.POST_GROOMED
            )),
            1,
            1,
        )
        # The replayed duplicate: same coverage, one entry.
        thin = index.evolve_streaming(
            2, rid_map(make_entries(definition, keys=[3], zone=Zone.POST_GROOMED)), 1, 1
        )
        revived, state = fresh_process(index)
        assert thin.new_run_id in state.deleted_run_ids
        assert full.new_run_id not in state.deleted_run_ids
        kept = [r.run_id for r in state.runs_by_zone[Zone.POST_GROOMED]]
        assert full.new_run_id in kept
        for key in (1, 2, 3, 4, 5):
            assert revived.lookup((key,), (key,)) is not None

    def test_torn_populated_run_falls_back_to_valid_duplicate(self):
        """If the *populated* duplicate was torn mid-persist, the valid
        thinner one is all that survives validation -- recovery keeps it
        instead of keeping a run that cannot be read."""
        definition = i1_definition()
        # Persist order: 1 = groomed run, 2 = full post run (torn: header
        # lands, data blocks dropped), 3 = thin duplicate (clean).
        index, _hierarchy = build_faulty_index(
            "tie2",
            TornWrite(persist_ordinal=2, keep_data_blocks=0, drop_header=False),
        )
        index.add_groomed_run(make_entries(definition, keys=[1, 2, 3]), 1, 1)
        torn_full = index.evolve_streaming(
            1,
            rid_map(make_entries(definition, keys=[1, 2, 3], zone=Zone.POST_GROOMED)),
            1,
            1,
        )
        thin = index.evolve_streaming(
            2, rid_map(make_entries(definition, keys=[2], zone=Zone.POST_GROOMED)), 1, 1
        )
        revived, state = fresh_process(index)
        assert torn_full.new_run_id in state.incomplete_run_ids
        kept = [r.run_id for r in state.runs_by_zone[Zone.POST_GROOMED]]
        assert kept == [thin.new_run_id]


class TestCheckpointClamping:
    def test_torn_post_groomed_persist_clamps_to_supported_checkpoint(self):
        """The newest checkpoint claims watermark 2, but the post-groomed
        run covering gid 2 was torn mid-write.  Honouring it would declare
        gid 2 indexed while nothing serves it; recovery must fall back to
        the newest *supported* checkpoint and record the clamp, so the
        indexer re-evolves PSN 2 from upstream data."""
        definition = i1_definition()
        # Persist order: 1 = groomed g1, 2 = post p1 (covers gid 1),
        # 3 = groomed g2, 4 = post p2 (covers gid 2) -- torn, total loss.
        index, hierarchy = build_faulty_index(
            "cl",
            TornWrite(persist_ordinal=4, keep_data_blocks=0, drop_header=True),
        )
        index.add_groomed_run(make_entries(definition, keys=[1, 2]), 1, 1)
        index.evolve_streaming(
            1,
            rid_map(make_entries(definition, keys=[1, 2], zone=Zone.POST_GROOMED)),
            1,
            1,
        )
        index.add_groomed_run(
            make_entries(definition, keys=[8, 9], begin_ts_start=10), 2, 2
        )
        index.evolve_streaming(
            2,
            rid_map(make_entries(
                definition, keys=[8, 9], begin_ts_start=10, zone=Zone.POST_GROOMED
            )),
            2,
            2,
        )
        assert hierarchy.stats.faults.torn_writes == 1

        revived, state = fresh_process(index)
        assert state.clamped_from is not None
        assert state.clamped_from.indexed_psn == 2
        assert state.checkpoint is not None
        assert state.checkpoint.indexed_psn == 1
        assert revived.indexed_psn == 1
        assert revived.watermark.value == 1
        # gid 1 answers stay correct; gid 2 is *absent*, never wrong.
        for key in (1, 2):
            assert revived.lookup((key,), (key,)) is not None

        # Upstream replay: the indexer, seeing IndexedPSN = 1, re-runs
        # the PSN 2 evolve over gid 2's groomed data, re-derived upstream
        # (the lost evolve had already collected its groomed run) -- this
        # universe has no further faults.
        revived.add_groomed_run(
            make_entries(definition, keys=[8, 9], begin_ts_start=10), 2, 2
        )
        revived.evolve_streaming(
            2,
            rid_map(make_entries(
                definition, keys=[8, 9], begin_ts_start=10, zone=Zone.POST_GROOMED
            )),
            2,
            2,
        )
        for key in (1, 2, 8, 9):
            assert revived.lookup((key,), (key,)) is not None
        assert revived.indexed_psn == 2


class TestAllocatorResume:
    def test_fresh_process_allocates_above_surviving_runs(self):
        """A recovered process must resume run-id allocation above every
        surviving namespace or its first build collides (append-only
        shared storage rejects duplicate block ids)."""
        definition = i1_definition()
        index = UmziIndex(definition, config=small_config("al"))
        index.add_groomed_run(make_entries(definition, keys=[1, 2]), 1, 1)
        revived, _state = fresh_process(index)
        # Without allocator resume this re-allocates seq 0 and raises
        # SharedStorageError on the surviving namespace.
        revived.add_groomed_run(
            make_entries(definition, keys=[3, 4], begin_ts_start=5), 2, 2
        )
        namespaces = revived.hierarchy.shared.namespaces()
        run_namespaces = [n for n in namespaces if n.startswith("al-run")]
        assert len(run_namespaces) == 2
        for key in (1, 2, 3, 4):
            assert revived.lookup((key,), (key,)) is not None

    def test_torn_run_id_is_never_reused(self):
        """Even when the crash tore the only run (recovery deletes it),
        the allocator resumes past its sequence number: the dropped id's
        delete may race a later rewrite on real shared storage."""
        definition = i1_definition()
        # Tear persist 1 completely but keep the header, so the namespace
        # survives the crash for recovery (and the scan) to observe.
        index, _hierarchy = build_faulty_index(
            "al2",
            TornWrite(persist_ordinal=1, keep_data_blocks=0, drop_header=False),
        )
        index.add_groomed_run(make_entries(definition, keys=[1, 2, 3]), 1, 1)
        revived, state = fresh_process(index)
        assert len(state.incomplete_run_ids) == 1
        revived.add_groomed_run(
            make_entries(definition, keys=[1, 2, 3]), 1, 1
        )
        run_namespaces = [
            n
            for n in revived.hierarchy.shared.namespaces()
            if n.startswith("al2-run")
        ]
        # The replacement got a fresh sequence number.
        assert run_namespaces != [state.incomplete_run_ids[0]]
        assert all(n != state.incomplete_run_ids[0] for n in run_namespaces)
