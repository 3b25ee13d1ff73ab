"""Property tests for the zero-decode hot path.

The whole point of the block format is that raw sort-key slices are
*bit-identical* to what decode + re-encode would produce, across every
column-type combination an index definition allows.  These properties pin
that equivalence down over random definitions and random entries, and check
that a block in the retired v1 layout is refused.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.builder import RunBuilder
from repro.core.definition import ColumnSpec, ColumnType, IndexDefinition
from repro.core.entry import (
    IndexEntry,
    RID,
    Zone,
    begin_ts_of_sort_key,
    SORT_KEY_TS_BYTES,
)
from repro.core.run import DataBlockView
from repro.storage.hierarchy import StorageHierarchy

from tests.conftest import (
    encode_data_block, entry_at, v1_layout_payload, view_sort_key,
)
from tests.reference_merge import entry_blob_at
from tests.reference_search import sort_key_at, view_at

_CTYPES = (
    ColumnType.INT64,
    ColumnType.FLOAT64,
    ColumnType.STRING,
    ColumnType.BYTES,
)


def _value_for(ctype: ColumnType, draw_int: int) -> object:
    """A deterministic value of the column's type derived from an int."""
    if ctype is ColumnType.INT64:
        return draw_int
    if ctype is ColumnType.FLOAT64:
        return float(draw_int) / 4.0
    if ctype is ColumnType.STRING:
        return f"k{draw_int:04d}\x00tail" if draw_int % 3 == 0 else f"k{draw_int:04d}"
    return draw_int.to_bytes(4, "big", signed=True) + (b"\x00" * (draw_int % 3))


@st.composite
def definition_and_entries(draw):
    """A random index shape plus a random bag of entries for it."""
    n_eq = draw(st.integers(0, 2))
    n_sort = draw(st.integers(0 if n_eq else 1, 2))
    n_incl = draw(st.integers(0, 2))
    eq_types = [draw(st.sampled_from(_CTYPES)) for _ in range(n_eq)]
    sort_types = [draw(st.sampled_from(_CTYPES)) for _ in range(n_sort)]
    incl_types = [draw(st.sampled_from(_CTYPES)) for _ in range(n_incl)]
    definition = IndexDefinition(
        equality_columns=tuple(
            ColumnSpec(f"eq{i}", t) for i, t in enumerate(eq_types)
        ),
        sort_columns=tuple(
            ColumnSpec(f"sort{i}", t) for i, t in enumerate(sort_types)
        ),
        included_columns=tuple(
            ColumnSpec(f"incl{i}", t) for i, t in enumerate(incl_types)
        ),
        hash_bits=draw(st.integers(1, 10)),
    )
    rows = draw(
        st.lists(
            st.tuples(st.integers(-500, 500), st.integers(0, 1 << 40)),
            min_size=1,
            max_size=40,
        )
    )
    entries = []
    for offset, (k, ts) in enumerate(rows):
        entries.append(
            IndexEntry.create(
                definition,
                tuple(_value_for(t, k + i) for i, t in enumerate(eq_types)),
                tuple(_value_for(t, k - i) for i, t in enumerate(sort_types)),
                tuple(_value_for(t, k * 2 + i) for i, t in enumerate(incl_types)),
                ts,
                RID(Zone.GROOMED, abs(k), offset),
            )
        )
    return definition, entries


class TestRawSliceEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(case=definition_and_entries())
    def test_raw_accessors_match_decoded_entries(self, case):
        definition, entries = case
        builder = RunBuilder(definition, StorageHierarchy(), data_block_bytes=256)
        run = builder.build("p", entries, Zone.GROOMED, 0, 0, 0)
        for ordinal in range(run.entry_count):
            entry = entry_at(run, ordinal)
            expected_sort_key = entry.sort_key(definition)
            view, in_block = view_at(run, ordinal)
            assert view_sort_key(view, in_block) == expected_sort_key
            assert expected_sort_key[:-SORT_KEY_TS_BYTES] == entry.key_bytes(
                definition
            )
            assert begin_ts_of_sort_key(expected_sort_key) == entry.begin_ts

    @settings(max_examples=60, deadline=None)
    @given(case=definition_and_entries())
    def test_raw_slices_order_exactly_like_encoded_keys(self, case):
        definition, entries = case
        builder = RunBuilder(definition, StorageHierarchy(), data_block_bytes=512)
        run = builder.build("p", entries, Zone.GROOMED, 0, 0, 0)
        raw_keys = [sort_key_at(run, i) for i in range(run.entry_count)]
        assert raw_keys == sorted(raw_keys)
        assert raw_keys == sorted(e.sort_key(definition) for e in entries)

    @settings(max_examples=40, deadline=None)
    @given(case=definition_and_entries())
    def test_entry_blobs_round_trip(self, case):
        definition, entries = case
        builder = RunBuilder(definition, StorageHierarchy(), data_block_bytes=256)
        run = builder.build("p", entries, Zone.GROOMED, 0, 0, 0)
        for ordinal in range(run.entry_count):
            view, in_block = view_at(run, ordinal)
            blob = entry_blob_at(view, in_block)
            decoded, consumed = IndexEntry.from_bytes(definition, blob)
            assert consumed == len(blob)
            assert decoded == entry_at(run, ordinal)


class TestOneBlockFormat:
    @settings(max_examples=40, deadline=None)
    @given(case=definition_and_entries())
    def test_blocks_decode_to_their_entries(self, case):
        definition, entries = case
        ordered = sorted(entries, key=lambda e: e.sort_key(definition))
        view = DataBlockView(definition, encode_data_block(definition, ordered))
        assert [view.entry(i) for i in range(view.count)] == ordered

    @settings(max_examples=40, deadline=None)
    @given(case=definition_and_entries())
    def test_a_v1_layout_block_is_refused(self, case):
        definition, entries = case
        ordered = sorted(entries, key=lambda e: e.sort_key(definition))
        with pytest.raises(ValueError, match="not an Umzi data block"):
            DataBlockView(definition, v1_layout_payload(definition, ordered))
