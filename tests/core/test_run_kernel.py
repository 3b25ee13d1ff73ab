"""The block-local binary search inside the run kernels.

Four guards: the search stage of ``IndexRun.scan_visible`` -- block-index
fences clamped onto ``[lo, hi)``, then the windowed binary search --
probes exactly what the old per-probe ``locate -> block_view ->
sort_key_at`` loop probed between the same fences (the oracle lives in
``tests/reference_search.py``); the decode / probe / I/O counters of a
fixed fixture stay at the values the pre-kernel commit produced (but for
``entry_decodes`` of the range rows, which fell when scans began decoding
only the entries they return -- see ``GOLDEN``); building
a block view allocates a bounded number of objects whatever the entry
count; and a lookup over a purged level releases exactly the blocks it
fetched.
"""

import tracemalloc
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.builder import RunBuilder
from repro.core.definition import ColumnSpec, IndexDefinition, i1_definition
from repro.core.entry import IndexEntry, RID, Zone
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.core.query import MAX_QUERY_TS
from repro.core.run import DataBlockView, encode_data_block
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import ReadIntent

from tests.reference_search import (
    key_position_bounds,
    reference_first_geq,
    sort_key_at,
)

HASHED = i1_definition()
UNBUCKETED = IndexDefinition(
    sort_columns=(ColumnSpec("s0"), ColumnSpec("s1")),
    included_columns=(ColumnSpec("incl0"),),
)


def make_entry(definition, device, msg, begin_ts, gid=0):
    hashed = bool(definition.equality_columns)
    return IndexEntry.create(
        definition,
        (device,) if hashed else (),
        (msg,) if hashed else (device, msg),
        (device * 1000 + msg,),
        begin_ts,
        RID(Zone.GROOMED, gid, device * 100 + msg),
    )


class RecordingTarget(bytes):
    """A search target that logs every key it is compared with.

    ``key < target`` with a plain ``bytes`` key dispatches to the
    subclass's reflected ``__gt__`` first, so the log is the search's probe
    sequence without any hook inside ``src/``.
    """

    def __new__(cls, value):
        self = super().__new__(cls, value)
        self.seen = []
        return self

    def __gt__(self, other):
        self.seen.append(other)
        return bytes.__gt__(self, other)


@st.composite
def run_and_search(draw):
    """A multi-block run with versioned duplicate keys, plus one search."""
    definition = draw(st.sampled_from([HASHED, UNBUCKETED]))
    keys = draw(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 40)),
            min_size=1, max_size=60, unique=True,
        )
    )
    entries = []
    for device, msg in keys:
        for version in range(draw(st.integers(1, 3))):
            entries.append(
                make_entry(definition, device, msg, 1 + len(entries) + version)
            )
    builder = RunBuilder(
        definition, StorageHierarchy(),
        data_block_bytes=draw(st.sampled_from([96, 160, 256])),
    )
    run = builder.build("k", entries, Zone.GROOMED, 0, 0, 0)

    cum = run._cum
    count = run.entry_count
    some_entry = draw(st.sampled_from(entries))
    block = draw(st.integers(0, run.header.num_data_blocks - 1))
    target = draw(
        st.sampled_from([
            some_entry.sort_key(definition),       # an exact sort key
            some_entry.key_bytes(definition),      # a key prefix: first version
            run.header.block_meta[block].first_sort_key,
            b"",                                   # below the first entry
            b"\xff" * 40,                          # above the last entry
        ])
    )
    # [lo, hi): whole run, an empty range, or a window spanning 1-4 blocks
    # that may start and end mid-block.
    shape = draw(st.sampled_from(["all", "empty", "blocks"]))
    if shape == "all":
        lo, hi = 0, count
    elif shape == "empty":
        lo = hi = draw(st.integers(0, count))
    else:
        last = min(block + draw(st.integers(1, 4)), run.header.num_data_blocks)
        lo = draw(st.integers(cum[block], cum[block + 1] - 1))
        hi = draw(st.integers(max(lo, cum[last - 1]), cum[last]))
    return run, target, lo, hi


def fenced(run, target, lo, hi):
    """``[lo, hi)`` clamped onto the block-index bracket of ``target``."""
    block_lo, block_hi = key_position_bounds(run, target)
    return max(lo, min(block_lo, hi)), min(hi, max(block_hi, lo))


def search_stage(run, target, lo, hi):
    """Where ``scan_visible``'s search ends, and the keys it compared with
    ``target`` on the way: a first-only scan to the run's end with every
    version visible stops on the entry the search ended at."""
    recording = RecordingTarget(target)
    hits = [
        hit for hits in run.scan_visible(recording, lo, hi, b"", b"", True)
        for hit in hits
    ]
    # The fences' ``bisect_left`` over the block index compares through the
    # same reflected ``__gt__``; those come first and are no probes.
    fence_compares = RecordingTarget(target)
    bisect_left(run._first_keys, fence_compares)
    assert recording.seen[: len(fence_compares.seen)] == fence_compares.seen
    return hits, recording.seen[len(fence_compares.seen):]


class TestKernelMatchesReferenceLoop:
    @settings(max_examples=300, deadline=None)
    @given(case=run_and_search())
    def test_same_ordinal_and_same_probe_sequence(self, case):
        run, target, lo, hi = case
        ordinal_of = {
            sort_key_at(run, i): i for i in range(run.entry_count)
        }
        assert len(ordinal_of) == run.entry_count  # sort keys are unique

        expected_probes = []
        expected = reference_first_geq(
            run, target, *fenced(run, target, lo, hi), expected_probes
        )

        run.drop_decode_cache()
        reads = run.hierarchy.stats.intents[ReadIntent.QUERY]
        reads_before = reads.reads
        hits, probed = search_stage(run, target, lo, hi)
        assert [ordinal_of[sort_key] for sort_key, _, _ in hits] == (
            [expected] if expected < run.entry_count else []
        )
        assert [ordinal_of[key] for key in probed] == expected_probes
        # One hierarchy read per distinct block probed, like the old loop,
        # and one for the block the scan starts in if no probe fell there.
        touched = expected_probes + [expected] * (expected < run.entry_count)
        assert reads.reads - reads_before == len(
            {run.locate(ordinal)[0] for ordinal in touched}
        )

    def test_probe_counter_is_charged_once_per_entry_looked_at(self):
        entries = [make_entry(HASHED, d, m, 1) for d in range(4) for m in range(50)]
        run = RunBuilder(HASHED, StorageHierarchy(), data_block_bytes=256).build(
            "c", entries, Zone.GROOMED, 0, 0, 0
        )
        decode = run.hierarchy.stats.decode
        probes = []
        reference_first_geq(
            run, b"\x80", *fenced(run, b"\x80", 0, run.entry_count), probes
        )
        before = decode.raw_key_probes
        hits, probed = search_stage(run, b"\x80", 0, run.entry_count)
        assert len(probed) == len(probes) and len(hits) == 1
        # The search's probes, and the one entry the first-only scan read.
        assert decode.raw_key_probes - before == len(probes) + 1


# ---------------------------------------------------------------------------
# golden counters
# ---------------------------------------------------------------------------


def golden_index(definition):
    levels = LevelConfig(groomed_levels=3, post_groomed_levels=2,
                         max_runs_per_level=8, size_ratio=4)
    index = UmziIndex(
        definition,
        config=UmziConfig(name="golden", levels=levels, data_block_bytes=1024),
    )
    for gid in range(3):
        index.add_groomed_run(
            [
                make_entry(definition, device, msg, 100 * gid + 1 + msg % 7, gid)
                for device in range(8)
                for msg in range(gid * 20, gid * 20 + 60)
            ],
            gid, gid,
        )
    return index


def counters(index):
    stats = index.hierarchy.stats
    query = stats.intents[ReadIntent.QUERY]
    return (
        stats.decode.raw_key_probes,
        stats.decode.entry_decodes,
        query.reads,
        query.shared_reads,
        stats.total_sim_ns,
    )


# (raw_key_probes, entry_decodes, hierarchy reads, shared reads, sim ns) per
# step, as produced by the commit before the kernel (af7751c) on this exact
# fixture.  The kernel must probe the same ordinals in the same order and
# fetch the same blocks, so none of these may move -- with one exception:
# since the block-granular scan kernel (PR 16) a range scan decodes only
# the entries it returns, not every version the cross-run reconcile then
# drops, so ``entry_decodes`` of the four ``range`` rows fell (256 -> 118,
# 132 -> 61).  Every other figure in those rows is the pre-kernel one.
GOLDEN = {
    ("hashed", "point"): (156, 32, 33, 0, 2655378),
    ("hashed", "point_old_ts"): (185, 16, 24, 0, 1931184),
    ("hashed", "range"): (290, 118, 6, 0, 482796),
    ("hashed", "batch"): (874, 94, 9, 0, 723853),
    ("hashed", "point_purged"): (156, 32, 33, 33, 72700122),
    ("hashed", "range_purged"): (141, 61, 11, 11, 24233374),
    ("hashed", "batch_purged"): (874, 120, 52, 52, 114555547),
    ("unbucketed", "point"): (418, 32, 37, 0, 2977098),
    ("unbucketed", "point_old_ts"): (195, 16, 20, 0, 1609380),
    ("unbucketed", "range"): (297, 118, 4, 0, 321876),
    ("unbucketed", "batch"): (931, 94, 3, 0, 241407),
    ("unbucketed", "point_purged"): (418, 32, 80, 80, 176242507),
    ("unbucketed", "range_purged"): (150, 61, 10, 10, 22030520),
    ("unbucketed", "batch_purged"): (931, 120, 48, 48, 105745945),
}


@pytest.mark.parametrize(
    "name,definition", [("hashed", HASHED), ("unbucketed", UNBUCKETED)]
)
def test_golden_counters_for_point_range_and_batch(name, definition):
    hashed = bool(definition.equality_columns)
    index = golden_index(definition)

    def key(device, msg):
        return ((device,), (msg,)) if hashed else ((), (device, msg))

    def scan(device):
        if hashed:
            return index.scan((device,), (10,), (70,))
        return index.scan((), (device, 10), (device, 70))

    points = [key(d, m) for d in range(8) for m in (0, 25, 45, 79, 200)]
    batch = [
        (*eq, *sort)
        for eq, sort in (key(d, m) for d in range(8) for m in range(0, 100, 7))
    ]
    steps = [
        ("point", lambda: [index.lookup(*k) for k in points]),
        ("point_old_ts", lambda: [
            index.lookup(*key(d, m), query_ts=103)
            for d in range(8) for m in (25, 45)
        ]),
        ("range", lambda: [scan(d) for d in (1, 5)]),
        ("batch", lambda: index.batch_lookup(batch, MAX_QUERY_TS)),
        ("purge", lambda: index.cache.set_cache_level(-1)),
        ("point_purged", lambda: [index.lookup(*k) for k in points]),
        ("range_purged", lambda: scan(1)),
        ("batch_purged", lambda: index.batch_lookup(batch, MAX_QUERY_TS)),
    ]
    measured = {}
    for step, action in steps:
        before = counters(index)
        action()
        measured[name, step] = tuple(
            after - earlier for after, earlier in zip(counters(index), before)
        )
    del measured[name, "purge"]
    assert measured == {k: v for k, v in GOLDEN.items() if k[0] == name}


# ---------------------------------------------------------------------------
# view construction cost
# ---------------------------------------------------------------------------


def _view_allocations(payload):
    """Live Python memory blocks attributable to one view over ``payload``."""
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        view = DataBlockView(HASHED, payload)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert view.count  # keep the view alive across the second snapshot
    return sum(
        stat.count_diff for stat in after.compare_to(before, "filename")
        if stat.count_diff > 0
    )


def test_view_construction_allocates_o1_objects():
    def payload(entries):
        return encode_data_block(
            HASHED, [make_entry(HASHED, 1, msg, 1) for msg in range(entries)]
        )

    small, large = _view_allocations(payload(50)), _view_allocations(payload(5000))
    # The view, its table array (one buffer), an empty memo dict or two and
    # tracemalloc's own noise: a handful of blocks, and the same handful
    # for 100x the entries (the tuple tables took one int per entry).
    assert small <= 24 and large <= 24


# ---------------------------------------------------------------------------
# what a purged-level lookup releases
# ---------------------------------------------------------------------------


class TestPurgedLookupReleasesWhatItFetched:
    def build(self):
        index = golden_index(UNBUCKETED)
        index.cache.set_cache_level(-1)
        hierarchy = index.hierarchy
        for run in index.all_runs():
            assert not run.fetched_blocks
            assert not any(
                hierarchy.is_cached(run.data_block_id(i))
                for i in range(run.header.num_data_blocks)
            )
        return index

    def test_lookup_drops_exactly_the_blocks_it_fetched(self):
        index = self.build()
        hierarchy = index.hierarchy
        dropped = []
        real_drop = hierarchy.drop_from_cache

        def recording_drop(block_ids):
            dropped.extend((bid, hierarchy.is_cached(bid)) for bid in block_ids)
            return real_drop(block_ids)

        hierarchy.drop_from_cache = recording_drop
        query = hierarchy.stats.intents[ReadIntent.QUERY]
        before = query.snapshot()
        assert index.lookup((), (3, 45)) is not None
        delta = query.diff(before)

        # Every block fetched was promoted, then dropped at query exit --
        # and nothing else was even asked for.
        assert delta.shared_reads == delta.promotions == len(dropped) > 0
        assert all(was_cached for _, was_cached in dropped)
        assert len({block_id for block_id, _ in dropped}) == len(dropped)
        for run in index.all_runs():
            assert not run.fetched_blocks and not run._views
            assert not any(
                hierarchy.is_cached(run.data_block_id(i))
                for i in range(run.header.num_data_blocks)
            )

    def test_blocks_of_a_pinned_reader_are_left_alone(self):
        index = self.build()
        hierarchy = index.hierarchy
        skips = hierarchy.stats.epochs
        with index.pin_snapshot() as reader:
            # The pinned reader warms blocks (its executor has no release
            # hook; the pin is what protects them).
            assert reader.executor.lookup((), (3, 45)) is not None
            held = {
                run.run_id: set(run.fetched_blocks) for run in index.all_runs()
            }
            assert any(held.values())
            skips_before = skips.eviction_pin_skips
            # A concurrent ordinary lookup over the same runs must not
            # drop anything while the reader's pin is live.
            assert index.lookup((), (5, 30)) is not None
            assert skips.eviction_pin_skips > skips_before
            for run in index.all_runs():
                assert held[run.run_id] <= run.fetched_blocks
                assert all(
                    hierarchy.is_cached(run.data_block_id(i))
                    for i in run.fetched_blocks
                )
        # Pin gone: the next lookup releases its own blocks *and* the ones
        # the skipped exits left behind.
        index.lookup((), (5, 30))
        searched = [run for run in index.all_runs() if held[run.run_id]]
        assert searched
        for run in searched:
            assert not run.fetched_blocks
            assert not any(
                hierarchy.is_cached(run.data_block_id(i))
                for i in range(run.header.num_data_blocks)
            )
