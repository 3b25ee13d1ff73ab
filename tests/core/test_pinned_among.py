"""``RunLifecycle.pinned_among``: one pass under the mutex for a whole
query exit, against the per-run ``is_pinned`` walk it replaced.

The old walk and the old per-run, per-block release loop are kept in
``tests/reference_storage.py``; a model that only knows which pins are
un-released and what their snapshots held checks both from the outside.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.entry import Zone
from repro.storage.metrics import EpochStats, ReadIntent

from tests.core.test_epoch_lifecycle import (
    FakeRun,
    FakeVersionedList,
    build_index,
)
from tests.reference_storage import (
    reference_is_pinned,
    reference_release_after_query,
)

RUN_IDS = [f"r{i}" for i in range(6)]

steps = st.one_of(
    st.tuples(st.just("publish"), st.sampled_from(RUN_IDS)),
    st.tuples(st.just("retire"), st.sampled_from(RUN_IDS)),
    st.tuples(st.just("pin_version")),
    st.tuples(st.just("release"), st.integers(0, 7)),
    st.tuples(st.just("drain")),
)


@settings(max_examples=120, deadline=None)
@given(sequence=st.lists(steps, max_size=30))
def test_pinned_among_is_the_per_run_walk_for_every_run_at_once(sequence):
    published = FakeVersionedList(EpochStats())
    lifecycle = published.lifecycle
    live = []  # (pin, the run ids its snapshot held): released ones leave
    for step in sequence:
        kind = step[0]
        if kind == "publish" and all(r.run_id != step[1] for r in published.runs):
            published.add(FakeRun(step[1]))
        elif kind == "retire" and any(r.run_id == step[1] for r in published.runs):
            published.remove(step[1])
            lifecycle.retire(step[1], lambda: None)
        elif kind == "pin_version":
            live.append((lifecycle.pin(), {r.run_id for r in published.runs}))
        elif kind == "release" and live:
            pin, _ = live.pop(step[1] % len(live))
            pin.release()
        elif kind == "drain":
            lifecycle.retired_backlog()

        answer = lifecycle.pinned_among(RUN_IDS)
        assert answer == {r for r in RUN_IDS if reference_is_pinned(lifecycle, r)}
        assert answer == {r for r in RUN_IDS if lifecycle.is_pinned(r)}
        held_by_queries = set().union(*(held for _, held in live))
        assert answer == held_by_queries
        assert lifecycle.pinned_among(()) == set()
    for pin, _ in live:
        pin.release()


def test_the_current_versions_own_reference_pins_nothing():
    lifecycle = FakeVersionedList(EpochStats(), *RUN_IDS).lifecycle
    lifecycle.pin().release()  # builds the current node
    assert lifecycle.pinned_among(RUN_IDS) == set()


def purged_index_with_fetched_blocks(runs=3):
    index = build_index(runs=runs)
    index.cache.set_cache_level(-1)
    handles = list(index.run_lists[Zone.GROOMED].snapshot())
    for run in handles:
        run.block_view(0)
        assert run.fetched_blocks
    return index, handles


def release_observables(index, handles):
    stats = index.hierarchy.stats
    return {
        "skips": stats.epochs.eviction_pin_skips,
        "tiers": stats.snapshot(),
        "sim_ns": stats.total_sim_ns,
        "intents": stats.intent_snapshot(),
        "fetched": [sorted(run.fetched_blocks) for run in handles],
        "views": [sorted(run._views) for run in handles],
        "resident": sorted(index.hierarchy.ssd.block_ids()),
    }


@pytest.mark.parametrize("pinned", [False, True])
def test_a_query_exit_releases_and_skips_as_the_per_run_loop_did(pinned):
    new, new_handles = purged_index_with_fetched_blocks()
    old, old_handles = purged_index_with_fetched_blocks()
    assert release_observables(new, new_handles) == release_observables(old, old_handles)

    def exit_query(index, handles, release):
        if not pinned:
            return release(index, handles)
        with index.pin_snapshot():  # another reader holds every run
            release(index, handles)

    exit_query(new, new_handles, lambda index, runs: index.cache.release_after_query(runs))
    exit_query(old, old_handles, lambda index, runs: reference_release_after_query(index.cache, runs))

    after = release_observables(new, new_handles)
    assert after == release_observables(old, old_handles)
    # One skip per run with something to release, none when nothing pins.
    assert after["skips"] == (len(new_handles) if pinned else 0)
    assert all(after["fetched"]) == pinned and all(after["views"]) == pinned
    assert new.hierarchy.stats.intents[ReadIntent.QUERY].promotions == len(new_handles)
