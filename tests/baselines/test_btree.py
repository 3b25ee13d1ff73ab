"""Tests for the sorted-array oracle index."""

import bisect

from hypothesis import given, settings, strategies as st

from repro.baselines.btree import SortedArrayIndex
from repro.core.definition import i1_definition
from repro.core.encoding import prefix_successor

from tests.conftest import make_entry

DEF = i1_definition()


def key_bytes(k):
    return make_entry(DEF, k, 1).key_bytes(DEF)


def all_versions(index, key):
    """Every version of one key in ``index``, newest first."""
    upper = prefix_successor(key)
    out = []
    for entry in index._entries[bisect.bisect_left(index._keys, key):]:
        if upper != b"" and entry.key_bytes(index.definition) >= upper:
            break
        out.append(entry)
    return out


class TestBasics:
    def test_insert_lookup(self):
        index = SortedArrayIndex(DEF)
        index.insert(make_entry(DEF, 5, 10))
        hit = index.lookup(key_bytes(5), 100)
        assert hit is not None and hit.begin_ts == 10

    def test_lookup_snapshot(self):
        index = SortedArrayIndex(DEF)
        index.insert(make_entry(DEF, 5, 10))
        index.insert(make_entry(DEF, 5, 20))
        assert index.lookup(key_bytes(5), 15).begin_ts == 10
        assert index.lookup(key_bytes(5), 25).begin_ts == 20
        assert index.lookup(key_bytes(5), 5) is None

    def test_exact_duplicate_replaces(self):
        index = SortedArrayIndex(DEF)
        index.insert(make_entry(DEF, 5, 10, offset=1))
        index.insert(make_entry(DEF, 5, 10, offset=2))
        assert len(index) == 1
        assert index.lookup(key_bytes(5), 100).rid.offset == 2

    def test_scan_latest_per_key(self):
        index = SortedArrayIndex(DEF)
        for k in range(10):
            index.insert(make_entry(DEF, k, 1))
            index.insert(make_entry(DEF, k, 2))
        hits = index.scan(b"", b"", 100)
        assert len(hits) == 10
        assert all(e.begin_ts == 2 for e in hits)

    def test_all_versions_newest_first(self):
        index = SortedArrayIndex(DEF)
        for ts in (3, 1, 2):
            index.insert(make_entry(DEF, 7, ts))
        versions = all_versions(index, key_bytes(7))
        assert [e.begin_ts for e in versions] == [3, 2, 1]


class TestScanBounds:
    @settings(max_examples=25, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 30), min_size=1, max_size=40),
        low=st.integers(0, 30),
        span=st.integers(0, 10),
    )
    def test_scan_respects_byte_bounds(self, keys, low, span):
        index = SortedArrayIndex(DEF)
        for i, k in enumerate(keys):
            index.insert(make_entry(DEF, k, i + 1))
        lower = key_bytes(low)
        upper = prefix_successor(key_bytes(low + span))
        hits = index.scan(lower, upper, 1 << 40)
        got_keys = {e.equality_values[0] for e in hits}
        # The hash column leads the byte order, so a byte range over
        # [key(low), key(low+span)] selects hash-contiguous keys; verify
        # every returned key is within the inclusive key set requested.
        for e in hits:
            kb = e.key_bytes(DEF)
            assert lower <= kb < (upper or b"\xff" * 64)
