"""Property-based tests for the run format itself.

The header carries every piece of metadata queries plan with (synopsis,
offset array, block index, ancestors); a round-trip
defect would silently corrupt pruning or recovery, so the serialization
gets hypothesis coverage over randomized runs.
"""

from hypothesis import given, settings, strategies as st

from repro.core.builder import RunBuilder
from repro.core.definition import i1_definition
from repro.core.entry import IndexEntry, RID, Zone
from repro.core.run import RunHeader
from repro.storage.hierarchy import StorageHierarchy

from tests.conftest import run_entries

DEF = i1_definition()

entry_specs = st.lists(
    st.tuples(
        st.integers(0, 100),      # key
        st.integers(1, 1_000),    # beginTS
    ),
    min_size=0, max_size=80,
)


def build_run(specs, ancestors=(), block_bytes=256):
    builder = RunBuilder(DEF, StorageHierarchy(), data_block_bytes=block_bytes)
    entries = [
        IndexEntry.create(DEF, (k,), (k,), (k,), ts, RID(Zone.GROOMED, 0, i))
        for i, (k, ts) in enumerate(specs)
    ]
    return builder.build(
        "prop-run", entries, Zone.GROOMED, 0, 0, 3,
        ancestor_run_ids=ancestors,
    )


class TestHeaderRoundtrip:
    @settings(max_examples=40, deadline=None)
    @given(specs=entry_specs)
    def test_roundtrip_plain(self, specs):
        run = build_run(specs)
        decoded = RunHeader.from_bytes(DEF, run.header.to_bytes(DEF))
        assert decoded == run.header

    @settings(max_examples=20, deadline=None)
    @given(
        specs=entry_specs,
        ancestors=st.lists(
            st.text(
                alphabet="abc-0123456789", min_size=1, max_size=20
            ),
            max_size=4, unique=True,
        ),
    )
    def test_roundtrip_with_ancestors(self, specs, ancestors):
        run = build_run(specs, ancestors=tuple(ancestors))
        decoded = RunHeader.from_bytes(DEF, run.header.to_bytes(DEF))
        assert decoded.ancestor_run_ids == tuple(ancestors)


class TestStructuralInvariants:
    @settings(max_examples=30, deadline=None)
    @given(specs=entry_specs)
    def test_block_meta_consistent(self, specs):
        run = build_run(specs)
        header = run.header
        assert sum(m.entry_count for m in header.block_meta) == header.entry_count
        # First keys are non-decreasing across blocks.
        first_keys = [m.first_sort_key for m in header.block_meta]
        assert first_keys == sorted(first_keys)

    @settings(max_examples=30, deadline=None)
    @given(specs=entry_specs)
    def test_offset_array_fences_every_entry(self, specs):
        run = build_run(specs)
        offsets = run.header.offset_array
        if not offsets:
            return
        assert offsets[0] == 0
        assert list(offsets) == sorted(offsets)
        assert offsets[-1] <= run.entry_count
        # Every entry's bucket range contains its ordinal.
        from repro.core.encoding import high_bits

        for ordinal, entry in enumerate(run_entries(run)):
            bucket = high_bits(entry.hash_value, DEF.hash_bits)
            lo = offsets[bucket]
            hi = offsets[bucket + 1] if bucket + 1 < len(offsets) else run.entry_count
            assert lo <= ordinal < hi

    @settings(max_examples=30, deadline=None)
    @given(specs=entry_specs)
    def test_synopsis_bounds_every_entry(self, specs):
        run = build_run(specs)
        if run.entry_count == 0:
            return
        eq_range = run.header.synopsis.ranges[0]
        sort_range = run.header.synopsis.ranges[1]
        for entry in run_entries(run):
            assert eq_range.min_value <= entry.equality_values[0] <= eq_range.max_value
            assert sort_range.min_value <= entry.sort_values[0] <= sort_range.max_value

    @settings(max_examples=20, deadline=None)
    @given(specs=entry_specs)
    def test_begin_ts_bounds(self, specs):
        run = build_run(specs)
        if run.entry_count == 0:
            return
        ts_values = [e.begin_ts for e in run_entries(run)]
        assert run.header.min_begin_ts == min(ts_values)
        assert run.header.max_begin_ts == max(ts_values)
