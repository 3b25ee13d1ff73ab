"""Unit tests for the version-set run lifecycle (repro.core.epoch)."""

from contextlib import contextmanager

import pytest

from repro.core.cache import HIGH_WATERMARK
from repro.core.definition import i1_definition
from repro.core.entry import Zone
from repro.core.epoch import RunLifecycle, RunListVersion
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.core.runlist import RunList
from repro.storage.hierarchy import BlockNotFoundError
from repro.storage.metrics import EpochStats

from tests.conftest import (
    is_pinned, key_of, live_version_count, make_entries, rid_map, unlink,
)

DEF = i1_definition()


def build_index(runs=4, per_run=10):
    levels = LevelConfig(groomed_levels=3, post_groomed_levels=2,
                         max_runs_per_level=8, size_ratio=4)
    index = UmziIndex(
        DEF,
        config=UmziConfig(name="ep", levels=levels, data_block_bytes=2048),
    )
    for gid in range(runs):
        index.add_groomed_run(
            make_entries(DEF, range(gid * per_run, (gid + 1) * per_run),
                         gid * per_run + 1),
            gid, gid,
        )
    return index


# The two ways a reader holds a version: a pinned snapshot for the length
# of its scope, and a query's own pin on the lifecycle.
READERS = ["snapshot-pin", "query-pin"]


@contextmanager
def reading(index, reader):
    """Hold ``reader``'s pin on the index's current version for the scope."""
    with index.pin_snapshot() if reader == "snapshot-pin" else index.lifecycle.pin():
        yield


class FakeRun:
    """Minimal stand-in: the lifecycle only reads ``run_id``."""

    def __init__(self, run_id):
        self.run_id = run_id


class FakeVersionedList:
    """A mutable published run set and the lifecycle collecting it.

    Mirrors what :class:`UmziIndex` wires up: every mutation calls
    ``note_publish`` (which makes the lifecycle's current version node
    stale; the next pin or retire rebuilds it through :meth:`collect`).
    """

    def __init__(self, stats, *run_ids):
        self.runs = [FakeRun(run_id) for run_id in run_ids]
        self.lifecycle = RunLifecycle(stats, self.collect)

    def collect(self):
        return RunListVersion(
            version_id=self.lifecycle.version_seq,
            groomed=tuple(self.runs),
            post_groomed=(),
            watermark=0,
        )

    def add(self, run):
        self.runs = self.runs + [run]
        self.lifecycle.note_publish()

    def remove(self, run_id):
        self.runs = [r for r in self.runs if r.run_id != run_id]
        self.lifecycle.note_publish()


class TestRunLifecycleUnit:
    def test_retire_unpinned_reclaims_immediately(self):
        stats = EpochStats()
        lifecycle = FakeVersionedList(stats).lifecycle
        freed = []
        lifecycle.retire("r1", lambda: freed.append("r1"))
        assert freed == ["r1"]
        assert stats.runs_retired == stats.runs_reclaimed == 1
        assert stats.reclaims_deferred == 0
        assert lifecycle.retired_backlog() == 0

    def test_retire_pinned_defers_until_release(self):
        stats = EpochStats()
        lists = FakeVersionedList(stats, "r1")
        lifecycle = lists.lifecycle
        freed = []
        pin = lifecycle.pin()
        assert is_pinned(lifecycle, "r1")
        lists.remove("r1")
        lifecycle.retire("r1", lambda: freed.append("r1"))
        assert freed == []  # parked behind the pin
        assert stats.reclaims_deferred == 1
        assert lifecycle.retired_backlog() == 1
        pin.release()
        assert freed == ["r1"]
        assert stats.runs_retired == stats.runs_reclaimed == 1
        assert lifecycle.retired_backlog() == 0

    def test_overlapping_pins_block_until_last_exit(self):
        lists = FakeVersionedList(EpochStats(), "r1")
        lifecycle = lists.lifecycle
        freed = []
        pin_a = lifecycle.pin()
        pin_b = lifecycle.pin()
        lists.remove("r1")
        lifecycle.retire("r1", lambda: freed.append("r1"))
        pin_a.release()
        assert freed == []  # pin_b still holds it
        pin_b.release()
        assert freed == ["r1"]

    def test_release_is_idempotent(self):
        stats = EpochStats()
        lifecycle = FakeVersionedList(stats, "r1").lifecycle
        pin = lifecycle.pin()
        pin.release()
        pin.release()
        assert stats.pins_entered == stats.pins_exited == 1
        assert stats.version_refs == stats.version_unrefs == 1

    def test_pin_after_retire_cannot_resurrect(self):
        """A pin taken after retirement does not defer the (already
        executed) reclaim -- retired runs are gone from the published
        lists, so the new pin simply does not contain them."""
        lifecycle = FakeVersionedList(EpochStats()).lifecycle
        freed = []
        lifecycle.retire("r1", lambda: freed.append("r1"))
        pin = lifecycle.pin()  # the snapshot no longer holds r1
        assert freed == ["r1"] and pin.runs == ()
        pin.release()

    def test_counters_are_monotonic(self):
        stats = EpochStats()
        lists = FakeVersionedList(stats)
        lifecycle = lists.lifecycle
        observed = []
        for i in range(5):
            lists.add(FakeRun(f"r{i}"))
            pin = lifecycle.pin()
            lists.remove(f"r{i}")
            lifecycle.retire(f"r{i}", lambda: None)
            pin.release()
            observed.append((stats.runs_retired, stats.runs_reclaimed))
        assert observed == sorted(observed)
        assert observed[-1] == (5, 5)


class TestRunListPublication:
    def test_every_mutation_publishes_a_version(self):
        index = build_index(runs=0)
        lifecycle = index.lifecycle
        epochs = index.hierarchy.stats.epochs
        assert lifecycle.version_seq == 0
        for gid in range(2):
            index.add_groomed_run(
                make_entries(DEF, range(gid * 5, gid * 5 + 5), gid * 5 + 1),
                gid, gid,
            )
            assert lifecycle.version_seq == epochs.versions_published == gid + 1
        index.run_lists[Zone.GROOMED].clear()
        assert lifecycle.version_seq == 3
        with lifecycle.pin() as pin:
            assert pin.version.version_id == 3 and pin.runs == ()

    def test_snapshot_is_the_published_tuple(self):
        run_list = RunList("t")
        assert run_list.snapshot() == []
        run = FakeRun("a")
        # RunList only needs run_id on this path.
        run_list.push_front(run)
        snap = run_list.snapshot()
        unlink(run_list, "a")
        assert snap == [run]           # old snapshot unaffected
        assert run_list.snapshot() == []


class TestIndexEpochIntegration:
    def test_evolve_defers_deletion_while_snapshot_pinned(self):
        index = build_index(runs=4)
        groomed_before = index.run_lists[Zone.GROOMED].snapshot()
        assert len(groomed_before) == 4
        with index.pin_snapshot() as snap:
            before = snap.executor.scan((12,))
            assert len(before) == 1
            # Evolve covers every groomed run: step 3 unlinks them all.
            entries = make_entries(DEF, range(40), 1, Zone.POST_GROOMED, 100)
            result = index.evolve_streaming(1, rid_map(entries), 0, 3)
            assert len(result.collected_run_ids) == 4
            assert index.run_lists[Zone.GROOMED].snapshot() == []
            # ... but their blocks must survive while the snapshot pins them.
            assert index.lifecycle.retired_backlog() == 4
            for run in groomed_before:
                for block_id in run.all_block_ids():
                    index.hierarchy.read(block_id)  # must not raise
            after = snap.executor.scan((12,))
            assert [e.rid for e in after] == [e.rid for e in before]
        # Pin released: the deferred deletions drain.
        assert index.lifecycle.retired_backlog() == 0
        with pytest.raises(BlockNotFoundError):
            index.hierarchy.read(groomed_before[0].data_block_id(0))

    def test_unpinned_evolve_deletes_immediately(self):
        index = build_index(runs=2)
        groomed = index.run_lists[Zone.GROOMED].snapshot()
        entries = make_entries(DEF, range(20), 1, Zone.POST_GROOMED, 100)
        index.evolve_streaming(1, rid_map(entries), 0, 1)
        assert index.lifecycle.retired_backlog() == 0
        with pytest.raises(BlockNotFoundError):
            index.hierarchy.read(groomed[0].data_block_id(0))

    def test_merge_defers_input_deletion_while_pinned(self):
        levels = LevelConfig(groomed_levels=3, post_groomed_levels=2,
                             max_runs_per_level=2, size_ratio=2)
        index = UmziIndex(
            DEF, config=UmziConfig(name="ep-mg", levels=levels,
                                   data_block_bytes=2048),
        )
        for gid in range(2):
            index.add_groomed_run(
                make_entries(DEF, range(gid * 10, (gid + 1) * 10),
                             gid * 10 + 1),
                gid, gid,
            )
        inputs = index.run_lists[Zone.GROOMED].snapshot()
        with index.pin_snapshot() as snap:
            results = index.run_maintenance()
            assert results, "fixture must trigger a merge"
            assert index.lifecycle.retired_backlog() > 0
            hits = snap.executor.scan(equality_values=(3,))
            assert len(hits) == 1
        assert index.lifecycle.retired_backlog() == 0
        with pytest.raises(BlockNotFoundError):
            index.hierarchy.read(inputs[0].data_block_id(0))

    def test_a_pinned_snapshot_ignores_later_writes(self):
        index = build_index(runs=2)
        with index.pin_snapshot() as snap:
            assert snap.executor.scan((25,)) == []
            index.add_groomed_run(make_entries(DEF, range(20, 30), 100), 2, 2)
            assert snap.executor.scan((25,)) == []          # pinned version
        assert len(index.scan((25,), (25,), (25,))) == 1    # live index sees it

    def test_query_version_ids_advance_with_publications(self):
        index = build_index(runs=1)
        v1 = index._collect_version()
        index.add_groomed_run(make_entries(DEF, range(10, 20), 20), 1, 1)
        v2 = index._collect_version()
        assert isinstance(v1, RunListVersion)
        assert v2.version_id > v1.version_id
        assert len(v2.candidates()) == len(v1.candidates()) + 1


@pytest.mark.parametrize("reader", READERS)
class TestCachePinAwareness:
    def test_purge_skips_pinned_runs(self, reader):
        index = build_index(runs=2)
        run = index.run_lists[Zone.GROOMED].snapshot()[0]
        with reading(index, reader):
            assert index.cache.purge_run(run) == 0
            assert index.hierarchy.stats.epochs.eviction_pin_skips >= 1
            assert index.cache.is_run_cached(run)
        # No pins: the purge proceeds.
        assert index.cache.purge_run(run) > 0

    def test_release_after_query_skips_runs_pinned_by_others(self, reader):
        index = build_index(runs=2)
        # Force every groomed level purged so release_after_query would
        # normally drop the touched blocks.
        index.cache.set_cache_level(-1)
        run = index.run_lists[Zone.GROOMED].snapshot()[0]
        index.cache.load_run(run)
        with reading(index, reader):
            skips_before = index.hierarchy.stats.epochs.eviction_pin_skips
            index.cache.release_after_query([run])
            assert (
                index.hierarchy.stats.epochs.eviction_pin_skips
                == skips_before + 1
            )
            assert index.cache.is_run_cached(run)
        index.cache.release_after_query([run])
        assert not index.cache.is_run_cached(run)

    def test_release_at_a_cached_level_is_no_decision_and_no_skip(self, reader):
        """``eviction_pin_skips`` counts release decisions skipped for a
        pin; a fully cached run at a cached level has nothing to release,
        so another reader's pin must not bump it (it used to)."""
        index = build_index(runs=2)
        run = index.run_lists[Zone.GROOMED].snapshot()[0]
        run.block_view(0)  # the handle has fetched something
        assert run.level <= index.cache.current_cached_level
        with reading(index, reader):
            skips_before = index.hierarchy.stats.epochs.eviction_pin_skips
            index.cache.release_after_query([run])
            assert (
                index.hierarchy.stats.epochs.eviction_pin_skips == skips_before
            )
        assert index.cache.is_run_cached(run)


class TestPurgePassUnderPins:
    @pytest.mark.parametrize("reader", READERS)
    def test_purge_pass_returns_instead_of_spinning_on_pinned_level(self, reader):
        """Regression: a purge pass whose candidate runs are all pinned
        must give up and retry later, not busy-loop (purge_run's pin skip
        used to count as progress) nor falsely decrement the level."""
        index = build_index(runs=3, per_run=20)
        runs = index.run_lists[Zone.GROOMED].snapshot()
        # Bound the SSD so utilization sits above the high watermark.
        used = index.hierarchy.ssd.used_bytes
        index.hierarchy.ssd.capacity_bytes = int(used / 0.95)
        with reading(index, reader):
            index.cache.maintain()  # must return promptly, not busy-loop
            # The pinned runs' blocks all survived the pass.
            assert all(index.cache.is_run_cached(run) for run in runs)
            assert index.hierarchy.stats.epochs.eviction_pin_skips > 0
        # Pins gone: the same pass now makes real progress.
        index.cache.maintain()
        assert index.hierarchy.ssd.utilization() < HIGH_WATERMARK
        assert any(not index.cache.is_run_cached(run) for run in runs)

    @pytest.mark.timeout(60)
    def test_empty_run_does_not_wedge_purge_pass(self):
        """A zero-data-block persisted run is 'cached' vacuously and purges
        nothing; the purge pass must not loop on it forever when the SSD
        stays above the high watermark (header blocks are never purged)."""
        index = build_index(runs=2, per_run=10)
        index.add_groomed_run([], 2, 2)  # empty persisted run at level 0
        # Purge everything once so only header blocks remain, then bound
        # the capacity so those alone keep utilization above the watermark.
        for run in index.run_lists[Zone.GROOMED].snapshot():
            index.cache.purge_run(run)
        headers_only = index.hierarchy.ssd.used_bytes
        index.cache.load_run(index.run_lists[Zone.GROOMED].snapshot()[1])
        index.hierarchy.ssd.capacity_bytes = int(headers_only / 0.9) + 1
        index.cache.maintain()  # must terminate
        assert index.hierarchy.ssd.utilization() >= HIGH_WATERMARK


class TestVersionSetLifecycle:
    """O(1) pins, version-chain reclamation."""

    def test_exactly_two_refcount_ops_per_query_any_run_count(self):
        """The countable invariant: one Ref at pin, one Unref at release,
        independent of how many runs the pinned version contains."""
        for num_runs in (1, 4, 8):
            index = build_index(runs=num_runs)
            stats = index.hierarchy.stats.epochs
            before = stats.snapshot()
            for k in range(10):
                index.lookup((k,), (k,))
            delta = stats.diff(before)
            assert delta.version_refs == 10
            assert delta.version_unrefs == 10

    def test_out_of_order_unref_chain_reclamation(self):
        """A long-lived scan pins an old version; newer versions come and
        go (their Unrefs arrive before the old pin's).  Each superseded
        version dies on its last Unref, but runs reachable from the
        still-pinned old version stay parked until IT releases."""
        stats = EpochStats()
        lists = FakeVersionedList(stats)
        lifecycle = lists.lifecycle
        lists.add(FakeRun("r1"))
        old_pin = lifecycle.pin()          # pins version {r1}
        lists.add(FakeRun("r2"))
        mid_pin = lifecycle.pin()          # pins {r1, r2}
        lists.add(FakeRun("r3"))
        new_pin = lifecycle.pin()          # pins {r1, r2, r3}
        assert live_version_count(lifecycle) == 3

        # Remove r1 from the published set and retire it: every live
        # version still contains it, so it parks.
        freed = []
        lists.remove("r1")
        lifecycle.retire("r1", lambda: freed.append("r1"))
        assert freed == [] and lifecycle.retired_backlog() == 1

        # Out-of-order exits: the newest readers leave first.  Their
        # versions die (reclaimed), but r1 stays parked behind old_pin.
        new_pin.release()
        mid_pin.release()
        assert stats.versions_reclaimed >= 2
        assert freed == []
        assert is_pinned(lifecycle, "r1")
        # The last (oldest) reader exits; now no live version covers r1.
        old_pin.release()
        assert freed == ["r1"]
        assert lifecycle.retired_backlog() == 0
        assert stats.version_refs == stats.version_unrefs == 3

    def test_retired_run_freed_iff_no_live_version_contains_it(self):
        """The versionset reclamation rule, stated directly: a retired
        run's free fires exactly when the last live version containing it
        dies -- not sooner, not later."""
        stats = EpochStats()
        lists = FakeVersionedList(stats)
        lifecycle = lists.lifecycle
        lists.add(FakeRun("a"))
        lists.add(FakeRun("b"))
        pin_ab = lifecycle.pin()           # version {a, b}
        lists.remove("a")
        pin_b = lifecycle.pin()            # version {b}
        freed = []
        lifecycle.retire("a", lambda: freed.append("a"))
        # {a, b} is still live (pin_ab): a must not be freed ...
        assert freed == []
        # ... and releasing the pin whose version does NOT contain a
        # changes nothing.
        pin_b.release()
        assert freed == []
        pin_ab.release()
        assert freed == ["a"]

    def test_current_version_implicit_ref_does_not_block_eviction(self):
        """Every live run is in the current version; only versions a
        query actually refs may report runs as pinned, or the cache could
        never evict anything."""
        index = build_index(runs=2)
        run = index.run_lists[Zone.GROOMED].snapshot()[0]
        assert not is_pinned(index.lifecycle, run.run_id)
        assert index.lifecycle.pinned_run_ids() == []
        assert index.cache.purge_run(run) > 0  # eviction proceeds

    @pytest.mark.parametrize("reader", READERS)
    def test_purge_skips_runs_reachable_from_old_live_version(self, reader):
        """A run evolved out of the *current* version must still refuse to
        purge while an older pinned version reaches it."""
        index = build_index(runs=2)
        groomed = index.run_lists[Zone.GROOMED].snapshot()
        with reading(index, reader):
            entries = make_entries(DEF, range(20), 1, Zone.POST_GROOMED, 100)
            index.evolve_streaming(1, rid_map(entries), 0, 1)
            # Gone from the current version, reachable from the pinned one.
            assert index.run_lists[Zone.GROOMED].snapshot() == []
            for run in groomed:
                assert index.cache.purge_run(run) == 0
            assert index.hierarchy.stats.epochs.eviction_pin_skips >= 2

    def test_post_groom_sweep_pins_the_current_version(self):
        """The post-groomer's batched lookup over the post-groomed zone
        pins the index's current version like any query -- one Ref, one
        Unref -- and reads that version's post-groomed runs."""
        index = build_index(runs=2)
        index.evolve_streaming(
            1, rid_map(make_entries(DEF, range(20), 1, Zone.POST_GROOMED, 100)), 0, 1
        )
        stats = index.hierarchy.stats.epochs
        before = stats.snapshot()
        found = index.post_groomed_batch_lookup([[3, 30], [3, 30]], 1 << 40)
        delta = stats.diff(before)
        assert delta.version_refs == delta.version_unrefs == 1
        assert delta.pins_entered == delta.pins_exited == 1
        assert found[0] is not None and found[0][0] == Zone.POST_GROOMED
        assert found[1] is None
        assert index.lifecycle.pinned_run_ids() == []

    def test_live_version_chain_stays_bounded(self):
        """Chain length tracks reader concurrency, not publication count:
        unpinned superseded versions die at the next publication."""
        index = build_index(runs=1)
        for gid in range(1, 6):
            index.add_groomed_run(
                make_entries(DEF, range(gid * 10, gid * 10 + 10),
                             gid * 10 + 1),
                gid, gid,
            )
            index.lookup((gid * 10,), (gid * 10,))
            assert live_version_count(index.lifecycle) == 1

    def test_publication_never_runs_reclaims_inline(self):
        """Regression (review finding): ``note_publish`` fires inside
        ``RunList._publish_locked`` -- while the mutator still holds the
        run list's mutation lock -- so it must never execute a retired
        run's reclaim; reclaims run from the pin, release, retire or
        backlog probe that follows, outside that lock."""
        index = build_index(runs=3)
        groomed = index.run_lists[Zone.GROOMED]
        newest, middle, _ = groomed.snapshot()
        freed = []

        def reclaim(run_id):
            return lambda: freed.append((run_id, groomed._mutation_lock.locked()))

        pin = index.lifecycle.pin()        # refs the version holding every run
        for run in (newest, middle):
            unlink(groomed, run.run_id)
            index.lifecycle.retire(run.run_id, reclaim(run.run_id))
        index.add_groomed_run(make_entries(DEF, range(40, 50), 41), 4, 4)
        assert freed == []                 # parked behind the pin
        pin.release()                      # the covering version dies here
        assert sorted(freed) == sorted([(newest.run_id, False), (middle.run_id, False)])
        index.add_groomed_run(make_entries(DEF, range(50, 60), 51), 5, 5)
        assert index.lifecycle.retired_backlog() == 0 and len(freed) == 2


class TestVersionCoalescing:
    """Deferred current-node rebuilds (ISSUE 9 satellite).

    ``note_publish`` only marks the current version node dirty; the
    rebuild happens at the first pin/retire that needs it, so a burst of
    N publications costs one rebuild and N-1 land in
    ``EpochStats.versions_coalesced``.
    """

    def test_publication_burst_rebuilds_once(self):
        stats = EpochStats()
        lists = FakeVersionedList(stats)
        lifecycle = lists.lifecycle
        for i in range(5):
            lists.add(FakeRun(f"r{i}"))
        assert stats.versions_published == 5
        assert stats.versions_coalesced == 0  # nothing rebuilt yet
        pin = lifecycle.pin()  # first consumer: one rebuild
        assert stats.versions_coalesced == 4
        assert {run.run_id for run in pin.runs} == {f"r{i}" for i in range(5)}
        pin.release()

    def test_single_publication_coalesces_nothing(self):
        stats = EpochStats()
        lists = FakeVersionedList(stats)
        lifecycle = lists.lifecycle
        lists.add(FakeRun("r0"))
        pin = lifecycle.pin()
        assert stats.versions_coalesced == 0
        pin.release()
        lists.add(FakeRun("r1"))
        pin = lifecycle.pin()
        assert stats.versions_coalesced == 0  # 1 publish -> 1 rebuild
        pin.release()

    def test_retire_also_folds_dirty_publications(self):
        stats = EpochStats()
        lists = FakeVersionedList(stats)
        lifecycle = lists.lifecycle
        for i in range(3):
            lists.add(FakeRun(f"r{i}"))
        lists.remove("r0")  # 4 publications total, none built
        freed = []
        lifecycle.retire("r0", lambda: freed.append("r0"))
        # The maintenance-side refresh folded all 4 into one rebuild --
        # and the fresh node no longer covers r0, so it freed inline.
        assert stats.versions_coalesced == 3
        assert freed == ["r0"]

    def test_queries_never_observe_stale_versions(self):
        stats = EpochStats()
        lists = FakeVersionedList(stats)
        lifecycle = lists.lifecycle
        lists.add(FakeRun("a"))
        pin = lifecycle.pin()
        pin.release()
        lists.add(FakeRun("b"))  # dirty: current node still lacks b
        pin = lifecycle.pin()
        assert {run.run_id for run in pin.runs} == {"a", "b"}
        pin.release()
