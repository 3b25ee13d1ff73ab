"""Tests for single-run search (paper section 7.1.1), incl. the Figure 2
worked example and a brute-force equivalence property."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.builder import RunBuilder
from repro.core.definition import i1_definition
from repro.core.encoding import (
    encode_uint64,
    prefix_successor,
)
from repro.core.entry import IndexEntry, RID, Zone
from repro.core.search import narrow_with_offset_array
from repro.storage.hierarchy import StorageHierarchy

from tests.conftest import encode_composite, entry_at, lookup_run, scan_run
from tests.reference_scan import batch_lookup_in_run

DEF = i1_definition()


def entry(device: int, msg: int, begin_ts: int, offset: int = 0) -> IndexEntry:
    return IndexEntry.create(
        DEF, (device,), (msg,), (device * 1000 + msg,), begin_ts,
        RID(Zone.GROOMED, 0, offset),
    )


def build_run(entries, block_bytes=256):
    builder = RunBuilder(DEF, StorageHierarchy(), data_block_bytes=block_bytes)
    return builder.build("r", entries, Zone.GROOMED, 0, 0, 0)


def key_bytes(device: int, msg: int) -> bytes:
    return (
        encode_uint64(DEF.hash_of((device,)))
        + encode_composite((device,))
        + encode_composite((msg,))
    )


def eq_bounds(device: int, low_msg: int, high_msg: int):
    prefix = encode_uint64(DEF.hash_of((device,))) + encode_composite((device,))
    lower = prefix + encode_composite((low_msg,))
    upper = prefix_successor(prefix + encode_composite((high_msg,)))
    return lower, upper


class TestPaperFigure2Example:
    """Section 7.1.1 worked example: device=4, 1<=msg<=3, queryTS=100.

    The run holds (device, msg, beginTS): (1,1,100), (8,2,101), (4,1,97),
    (4,1,94), (4,2,102), (5,1,97), (3,0,103), (3,1,104).  Expected answer:
    only (4,1,97) -- (4,1,94) is an older version, (4,2,102) is beyond the
    snapshot, (5,1,...) is out of range.
    """

    def test_worked_example(self):
        rows = [
            (1, 1, 100), (8, 2, 101), (4, 1, 97), (4, 1, 94),
            (4, 2, 102), (5, 1, 97), (3, 0, 103), (3, 1, 104),
        ]
        run = build_run([entry(d, m, ts, i) for i, (d, m, ts) in enumerate(rows)])
        lower, upper = eq_bounds(4, 1, 3)
        hits = list(scan_run(run, lower, upper, 100, DEF.hash_of((4,))))
        assert [(e.equality_values[0], e.sort_values[0], e.begin_ts) for e in hits] == [
            (4, 1, 97)
        ]

    def test_higher_snapshot_sees_msg2(self):
        rows = [(4, 1, 97), (4, 1, 94), (4, 2, 102)]
        run = build_run([entry(d, m, ts, i) for i, (d, m, ts) in enumerate(rows)])
        lower, upper = eq_bounds(4, 1, 3)
        hits = list(scan_run(run, lower, upper, 200, DEF.hash_of((4,))))
        assert [(e.sort_values[0], e.begin_ts) for e in hits] == [(1, 97), (2, 102)]


class TestOffsetArrayNarrowing:
    def test_bucket_bounds_contain_all_bucket_entries(self):
        entries = [entry(d, 0, 1, d) for d in range(200)]
        run = build_run(entries)
        for device in (0, 17, 150, 199):
            h = DEF.hash_of((device,))
            lo, hi = narrow_with_offset_array(run, h)
            target = key_bytes(device, 0)
            ordinals = [
                i for i in range(run.entry_count)
                if entry_at(run, i).key_bytes(DEF) == target
            ]
            assert ordinals, "entry must exist"
            assert all(lo <= o < hi for o in ordinals)

    def test_disabled_offset_array_gives_same_results(self):
        entries = [entry(d, m, 1, d * 3 + m) for d in range(30) for m in range(3)]
        run = build_run(entries)
        lower, upper = eq_bounds(7, 0, 2)
        with_oa = list(scan_run(run, lower, upper, 10, DEF.hash_of((7,)), True))
        without = list(scan_run(run, lower, upper, 10, None, False))
        assert with_oa == without


class TestLookup:
    def test_hit_and_miss(self):
        run = build_run([entry(3, 5, 50)])
        assert lookup_run(run, key_bytes(3, 5), 100, DEF.hash_of((3,)))
        assert lookup_run(run, key_bytes(3, 6), 100, DEF.hash_of((3,))) is None

    def test_snapshot_filters_future_versions(self):
        run = build_run([entry(3, 5, 50), entry(3, 5, 80, 1)])
        hit = lookup_run(run, key_bytes(3, 5), 60, DEF.hash_of((3,)))
        assert hit.begin_ts == 50

    def test_empty_run(self):
        run = build_run([])
        assert lookup_run(run, key_bytes(1, 1), 10, DEF.hash_of((1,))) is None


class TestBatchLookup:
    def test_batch_matches_individual_lookups(self):
        entries = [entry(d, m, d + m + 1, d * 5 + m) for d in range(20) for m in range(5)]
        run = build_run(entries)
        wanted = [(d, m) for d in range(0, 20, 3) for m in range(5)]
        batch = sorted(
            ((key_bytes(d, m), DEF.hash_of((d,))) for d, m in wanted),
            key=lambda pair: pair[0],
        )
        results = batch_lookup_in_run(run, batch, query_ts=1 << 40)
        for (kb, h), result in zip(batch, results):
            assert result == lookup_run(run, kb, 1 << 40, h)

    def test_missing_keys_resolve_to_none(self):
        run = build_run([entry(1, 1, 1)])
        batch = sorted(
            ((key_bytes(d, 9), DEF.hash_of((d,))) for d in range(5)),
            key=lambda pair: pair[0],
        )
        assert batch_lookup_in_run(run, batch, 100) == [None] * 5


class TestBruteForceEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        keys=st.lists(
            st.tuples(
                st.integers(0, 15),  # device
                st.integers(0, 7),   # msg
                st.integers(1, 60),  # beginTS
            ),
            min_size=1, max_size=60,
        ),
        device=st.integers(0, 15),
        low=st.integers(0, 7),
        span=st.integers(0, 7),
        query_ts=st.integers(1, 60),
    )
    def test_search_equals_brute_force(self, keys, device, low, span, query_ts):
        entries = [entry(d, m, ts, i) for i, (d, m, ts) in enumerate(keys)]
        run = build_run(entries)
        high = low + span
        lower, upper = eq_bounds(device, low, high)
        got = {
            (e.equality_values, e.sort_values, e.begin_ts)
            for e in scan_run(run, lower, upper, query_ts, DEF.hash_of((device,)))
        }
        expected = {}
        for d, m, ts in keys:
            if d == device and low <= m <= high and ts <= query_ts:
                current = expected.get((d, m))
                if current is None or ts > current:
                    expected[(d, m)] = ts
        assert got == {((d,), (m,), ts) for (d, m), ts in expected.items()}
