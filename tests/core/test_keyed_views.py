"""Keyed and cold data-block views: same answers, same counters.

A view the run handle memoized becomes *keyed* on the second query touch
(``IndexRun.block_view``): it keeps its sort-key column and the run
kernels finish their in-block search with C ``bisect_left`` over it,
charging ``raw_key_probes`` from ``_probes`` -- what the Python probe loop
of a *cold* view would have charged.  Three guards:

* ``_probes(n)[r]`` equals a literal lower-bound loop for every width up
  to 2,048 and every place the search can end;
* each kernel -- ``lookup_visible``, ``scan_visible``, ``batch_visible``
  -- run keyed (every view warmed to a column) and run cold (every view
  dropped) over the same run returns the same entries, charges the same
  ``raw_key_probes`` and ``entry_decodes`` and asks for the same blocks in
  the same order, and so does the per-ordinal / chain oracle in
  ``tests/reference_scan.py`` (``tests/reference_search.py``), over
  bucketed (``by_customer``-shaped: one hashed string column, long
  version chains) and unbucketed runs, mixed-snapshot batches, version
  chains handed over into the next block and keys outside the run;
* the residency rule: cold on the first touch, keyed from the second
  query touch on and built once, never for a purged level or under a
  maintenance intent, and dropped with the decode cache.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.block import _probes
from repro.core.builder import RunBuilder
from repro.core.definition import ColumnSpec, ColumnType, IndexDefinition
from repro.core.entry import IndexEntry, RID, Zone
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.core.run import DataBlockView
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import ReadIntent

from tests.conftest import lookup_run, scan_run, view_sort_key
from tests.reference_scan import (
    batch_lookup_in_run,
    chain_batch_lookup_in_run,
    reference_batch_lookup_in_run,
    reference_lookup_key_in_run,
    reference_search_run_raw,
)

BY_CUSTOMER = IndexDefinition(
    equality_columns=(ColumnSpec("customer", ColumnType.STRING),),
    included_columns=(ColumnSpec("amount"),),
    hash_bits=3,
)
UNBUCKETED = IndexDefinition(
    sort_columns=(ColumnSpec("s0"), ColumnSpec("s1")),
    included_columns=(ColumnSpec("amount"),),
)
CUSTOMERS, MSGS, MAX_TS = 5, 8, 60
SNAPSHOTS = (0, 1, MAX_TS // 3, MAX_TS, 1 << 60)


def literal_probe_counts(width):
    """Probes of ``lo, hi = 0, width; while lo < hi: mid = (lo + hi) // 2
    ...`` for every end ``r`` in ``[0, width]``, the loop run for all of
    them at once: the ends in ``[lo, hi]`` share the loop's state."""
    counts = bytearray(width + 1)
    states = [(0, width, 0)]
    while states:
        lo, hi, probes = states.pop()
        if lo == hi:
            counts[lo] = probes
            continue
        mid = (lo + hi) // 2
        states.append((lo, mid, probes + 1))  # keys[mid] >= key: hi = mid
        states.append((mid + 1, hi, probes + 1))  # keys[mid] < key
    return bytes(counts)


def test_probe_table_matches_a_literal_lower_bound_loop():
    for width in range(2049):
        assert _probes(width) == literal_probe_counts(width), width
    # ... and the loop itself, end by end, on the small widths.
    for width in range(65):
        for r in range(width + 1):
            lo, hi, probes = 0, width, 0
            while lo < hi:
                mid = (lo + hi) // 2
                probes += 1
                if mid < r:
                    lo = mid + 1
                else:
                    hi = mid
            assert _probes(width)[r] == probes


def make_entry(definition, first, second, begin_ts):
    """``by_customer``: customer ``c<first>`` (``second`` is the order);
    unbucketed: the key ``(first, second)``."""
    if definition is BY_CUSTOMER:
        eq, sort = (f"c{first}",), ()
    else:
        eq, sort = (), (first, second)
    return IndexEntry.create(
        definition, eq, sort, (begin_ts,), begin_ts,
        RID(Zone.GROOMED, 0, first * 100 + second),
    )


def build_run(definition, versions, block_bytes):
    builder = RunBuilder(
        definition, StorageHierarchy(), data_block_bytes=block_bytes
    )
    entries = [make_entry(definition, *version) for version in sorted(versions)]
    return builder.build("r", entries, Zone.GROOMED, 0, 0, 0)


def hash_of(key):
    """The 64-bit hash column a bucketed key bytes string starts with."""
    return int.from_bytes(key[:8].ljust(8, b"\x00"), "big")


class Observed:
    """Result, probes, decodes and the blocks asked for, of one action."""

    def __init__(self, run, action, keyed):
        run.drop_decode_cache()
        if keyed:  # a first and a second query touch of every block
            for block in range(run.header.num_data_blocks):
                run.block_view(block)
                run.block_view(block)
            assert all(view.keys is not None for view in run._views.values())
        touched = []
        real_block_view = run.block_view

        def recording_block_view(block_index, intent=ReadIntent.QUERY):
            touched.append(block_index)
            return real_block_view(block_index, intent)

        run.block_view = recording_block_view
        decode = run.hierarchy.stats.decode
        probes, decodes = decode.raw_key_probes, decode.entry_decodes
        try:
            self.result = action()
        finally:
            del run.block_view
        self.touched = touched
        # The order blocks were first asked for: from cold, the fetch order.
        self.blocks = list(dict.fromkeys(touched))
        self.counters = (
            decode.raw_key_probes - probes,
            decode.entry_decodes - decodes,
            self.blocks,
        )


def assert_both_kinds_match(run, kernel, oracle, exact=True):
    """The kernel keyed, the kernel cold and the oracle (cold) agree."""
    keyed = Observed(run, kernel, keyed=True)
    cold = Observed(run, kernel, keyed=False)
    expected = Observed(run, oracle, keyed=False)
    assert keyed.result == cold.result == expected.result
    assert keyed.counters == cold.counters
    assert keyed.touched == cold.touched  # same block resolutions, too
    if exact:
        assert cold.counters == expected.counters
    return keyed


@st.composite
def runs_and_targets(draw):
    """A multi-block run with long version chains, and keys to look for:
    present keys, block-first keys, and keys below and above the run."""
    definition = draw(st.sampled_from([BY_CUSTOMER, UNBUCKETED]))
    versions = draw(st.lists(
        st.tuples(
            st.integers(0, CUSTOMERS - 1), st.integers(0, MSGS - 1),
            st.integers(1, MAX_TS),
        ),
        min_size=1, max_size=50, unique=True,
    ))
    if definition is BY_CUSTOMER:  # one key, one beginTS
        versions = list({(c, 0, ts): None for c, _, ts in versions})
    run = build_run(definition, versions, draw(st.sampled_from([96, 160, 256])))
    present = sorted({
        make_entry(definition, *version).key_bytes(definition)
        for version in versions
    })
    firsts = [meta.first_sort_key[:-8] for meta in run.header.block_meta]
    targets = draw(st.lists(
        st.sampled_from(present + firsts + [b"", b"\x00", b"\xff" * 24]),
        min_size=1, max_size=8,
    ))
    return run, sorted(set(targets))


class TestKeyedKernelsMatchColdAndTheOracles:
    @settings(max_examples=40, deadline=None)
    @given(case=runs_and_targets(), data=st.data())
    def test_lookup_visible(self, case, data):
        run, targets = case
        use_offset_array = data.draw(st.booleans())
        for key in targets:
            ts = data.draw(st.sampled_from(SNAPSHOTS))
            arguments = (run, key, ts, hash_of(key), use_offset_array)
            assert_both_kinds_match(
                run,
                lambda: lookup_run(*arguments),
                lambda: reference_lookup_key_in_run(*arguments),
            )

    @settings(max_examples=40, deadline=None)
    @given(case=runs_and_targets(), data=st.data())
    def test_scan_visible(self, case, data):
        run, targets = case
        lower = data.draw(st.sampled_from(targets))
        upper = data.draw(st.sampled_from([b"", lower + b"\x00", b"\xff" * 24]))
        arguments = (
            run, lower, upper, data.draw(st.sampled_from(SNAPSHOTS)),
            hash_of(lower), data.draw(st.booleans()),
        )
        assert_both_kinds_match(
            run,
            lambda: list(scan_run(*arguments)),
            lambda: [entry for _, entry in reference_search_run_raw(*arguments)],
        )

    @settings(max_examples=40, deadline=None)
    @given(case=runs_and_targets(), data=st.data())
    def test_batch_visible(self, case, data):
        run, targets = case
        pairs = [(key, hash_of(key)) for key in targets]
        mixed = data.draw(st.booleans())
        query_ts = (
            [data.draw(st.integers(0, MAX_TS)) for _ in pairs] if mixed
            else data.draw(st.sampled_from(SNAPSHOTS))
        )
        arguments = (run, pairs, query_ts, data.draw(st.booleans()))
        # The chain made the same single pass: equal to the probe.
        assert_both_kinds_match(
            run,
            lambda: batch_lookup_in_run(*arguments),
            lambda: chain_batch_lookup_in_run(*arguments),
        )
        # The per-ordinal loop re-enters per key when snapshots differ.
        assert_both_kinds_match(
            run,
            lambda: batch_lookup_in_run(*arguments),
            lambda: reference_batch_lookup_in_run(*arguments),
            exact=not mixed,
        )


@pytest.mark.parametrize(
    "definition", [BY_CUSTOMER, UNBUCKETED], ids=["by_customer", "unbucketed"]
)
def test_hand_over_and_keys_outside_the_run(definition):
    """Sixteen versions of one key over small blocks: at old snapshots the
    visible version sits blocks past the one searched, keyed or cold; and
    keys below the first entry and above the last find nothing either way."""
    versions = [(1, 3, ts) for ts in range(1, 17)] + [
        (c, m, ts) for c in (0, 2, 3) for m in (0, 5) for ts in (2, 30)
    ]
    if definition is BY_CUSTOMER:
        versions = list({(c, 0, ts): None for c, _, ts in versions})
    run = build_run(definition, versions, 96)
    assert run.header.num_data_blocks >= 6
    hot = make_entry(definition, 1, 3, 1).key_bytes(definition)
    crossed = 0
    for ts in (1, 2, 8, 16, 1 << 60):
        for use_offset_array in (True, False):
            arguments = (run, hot, ts, hash_of(hot), use_offset_array)
            keyed = assert_both_kinds_match(
                run,
                lambda: lookup_run(*arguments),
                lambda: reference_lookup_key_in_run(*arguments),
            )
            assert keyed.result is not None and keyed.result.begin_ts <= ts
            crossed += len(keyed.blocks) >= 2
    assert crossed  # the hand-over into the next block ran keyed
    for key in (b"", b"\x00", b"\xff" * 24):
        for use_offset_array in (True, False):
            arguments = (run, key, 1 << 60, hash_of(key), use_offset_array)
            keyed = assert_both_kinds_match(
                run,
                lambda: lookup_run(*arguments),
                lambda: reference_lookup_key_in_run(*arguments),
            )
            assert keyed.result is None


# ---------------------------------------------------------------------------
# the residency rule
# ---------------------------------------------------------------------------


def cached_index():
    """Three cached groomed runs of a small unbucketed index."""
    levels = LevelConfig(groomed_levels=3, post_groomed_levels=2,
                         max_runs_per_level=8, size_ratio=4)
    index = UmziIndex(
        UNBUCKETED,
        config=UmziConfig(name="keyed", levels=levels, data_block_bytes=512),
    )
    for gid in range(3):
        index.add_groomed_run(
            [make_entry(UNBUCKETED, d, m, 10 * gid + 1) for d in range(6)
             for m in range(gid * 5, gid * 5 + 20)],
            gid, gid,
        )
    return index


def all_views(index):
    return [view for run in index.all_runs() for view in run._views.values()]


@pytest.fixture
def builds(monkeypatch):
    """Every ``key_column`` call that builds a column, as the view built."""
    built = []
    real = DataBlockView.key_column

    def recording(view):
        if view.keys is None:
            built.append(view)
        return real(view)

    monkeypatch.setattr(DataBlockView, "key_column", recording)
    return built


class TestResidencyRule:
    def test_cold_on_the_first_touch_keyed_from_the_second_built_once(
        self, builds
    ):
        index = cached_index()
        assert index.lookup((), (2, 7)) is not None
        first = all_views(index)
        assert first and all(view.keys is None for view in first)
        assert not builds
        assert index.lookup((), (2, 7)) is not None
        assert all(view.keys is not None for view in first)
        assert sorted(map(id, builds)) == sorted(map(id, first))
        columns = [view.keys for view in first]
        for _ in range(3):
            assert index.lookup((), (2, 7)) is not None
        assert [view.keys for view in first] == columns
        assert all(a is b for a, b in zip(columns, (v.keys for v in first)))
        assert len(builds) == len(first)  # built once
        view = first[0]
        assert view.keys == [view_sort_key(view, i) for i in range(view.count)]

    def test_a_purged_level_never_gets_a_column(self, builds):
        index = cached_index()
        index.cache.set_cache_level(-1)
        for _ in range(3):
            for d in range(6):
                assert index.lookup((), (d, 7)) is not None
            assert not all_views(index)  # dropped at query exit
        assert not builds

    def test_maintenance_reads_build_nothing(self, builds):
        index = cached_index()
        run = index.all_runs()[0]
        view = run.block_view(0)
        assert run.block_view(0, intent=ReadIntent.MAINTENANCE) is view
        second = run.block_view(1, intent=ReadIntent.MAINTENANCE)
        assert run.block_view(1, intent=ReadIntent.MAINTENANCE) is second
        run.block_columns(0)  # a one-pass stream reuses the memoized view
        assert not builds and view.keys is None
        assert run.block_view(0) is view and view.keys is not None
        assert builds == [view]

    def test_drop_decode_cache_drops_the_column(self):
        index = cached_index()
        run = index.all_runs()[0]
        run.block_view(0)
        assert run.block_view(0).keys is not None
        run.drop_decode_cache()
        assert not run._views
        assert run.block_view(0).keys is None
