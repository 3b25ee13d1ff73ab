"""The fused scan and batch kernels against the paths they replaced.

``tests/reference_scan.py`` keeps two generations of replaced code: the
per-entry loops (one probe and one block resolution per ordinal) and the
PR 16-20 chain of separate steps (``search_run_hits -> _seek ->
key_position_bounds -> first_geq -> scan_visible`` per run scanned, the
per-key ``_seek -> ... -> locate -> sort_key_at`` of a batch).  Every scan
and every batch here goes through an ``assert_*_matches``: over
multi-block, multi-run fixtures -- several versions per key, identical
versions surfacing from two runs, hashed and unhashed definitions,
bounds on block edges, empty ranges, unbounded uppers and
snapshots below / inside / above a key's versions -- the kernels
(``IndexRun.scan_visible``, ``lookup_visible``, ``batch_visible``) must
return the same entries, charge the same ``raw_key_probes`` and
``entry_decodes`` and fetch the same blocks in the same order.
``TestHardCases`` builds the awkward inputs by hand, and
``TestMutantsAreCaught`` breaks each kernel a few ways, one at a time, and
shows the same assertions fail.

Two differences from the *per-entry* oracle are by design and asserted as
such.  ``QueryExecutor.scan`` walks its runs one after the other (like the set
approach always did) instead of interleaving them through a heap, so
against the heap oracle its block fetches are the same *set*, grouped by
run.  And a batch that mixes snapshots is searched in the same
single pass as any other, where the per-entry oracle re-enters the run
once per key with the cursor reset.  Each key's binary search then runs
over a sub-range of the oracle's: it touches no other block, and usually
probes less -- but a lower-bound search over ``n`` elements takes
``floor(log2(n + 1))`` to ``floor(log2(n)) + 1`` probes depending on where
its midpoints fall, so a narrower range can cost one probe more, never
two.  Against that oracle the kernel's probes are therefore bounded by its
plus one per key searched
(``test_a_narrower_search_range_can_cost_one_more_probe`` pins the
smallest case; an earlier wording, "may only probe less", was falsified
by it); against the replaced chain, which made the same single pass, they
are equal.
"""

import inspect
import textwrap

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.builder import RunBuilder
from repro.core.definition import (
    ColumnSpec,
    ColumnType,
    IndexDefinition,
)
from repro.core.entry import IndexEntry, RID, Zone
from repro.core.query import (
    PointLookup,
    QueryError,
    QueryExecutor,
    RangeScanQuery,
    ReconcileStrategy,
    compute_scan_bounds,
    encode_point_key,
    encode_point_keys,
)
from repro.core import run as run_module
from repro.core.encoding import UINT64_MAX
from repro.core.run import IndexRun, RunHeader
from repro.core.search import (
    UNBOUNDED,
    narrow_with_offset_array,
    ts_floor,
)
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import ReadIntent

from tests.conftest import entry_at, lookup_run, scan_run
from tests.reference_search import key_position_bounds
from tests.reference_scan import (
    batch_lookup_in_run,
    chain_batch_lookup_in_run,
    chain_scan_visible,
    chain_search_run_hits,
    reference_batch_lookup_in_run,
    reference_lookup_key_in_run,
    reference_merge_runs_iter,
    reference_point_lookup,
    reference_reconcile_set,
    reference_search_run_raw,
    run_may_contain,
)

HASHED = IndexDefinition(
    equality_columns=(ColumnSpec("eq0"),),
    sort_columns=(ColumnSpec("sort0"),),
    included_columns=(ColumnSpec("incl0"),),
    hash_bits=3,
)
UNBUCKETED = IndexDefinition(
    sort_columns=(ColumnSpec("s0"), ColumnSpec("s1")),
    included_columns=(ColumnSpec("incl0"),),
)
DEVICES, MSGS, MAX_TS = 5, 12, 40
# Block sizes holding one or two, three, and four or five entries of the
# hand-built hard runs: every layout moves the block boundaries to other keys.
HARD_BLOCK_BYTES = (96, 160, 224)


def make_entry(definition, device, msg, begin_ts, gid):
    hashed = bool(definition.equality_columns)
    return IndexEntry.create(
        definition,
        (device,) if hashed else (),
        (msg,) if hashed else (device, msg),
        (begin_ts,),
        begin_ts,
        RID(Zone.GROOMED, gid, device * 100 + msg),
    )


@st.composite
def fixtures(draw):
    """1-4 overlapping multi-block runs over one hierarchy, newest first."""
    definition = draw(st.sampled_from([HASHED, UNBUCKETED]))
    hierarchy = StorageHierarchy()
    builder = RunBuilder(
        definition, hierarchy,
        data_block_bytes=draw(st.sampled_from([96, 160, 320])),
    )
    versions = st.tuples(
        st.integers(0, DEVICES - 1), st.integers(0, MSGS - 1),
        st.integers(1, MAX_TS),
    )
    runs, previous = [], []
    for gid in range(draw(st.integers(1, 4))):
        drawn = draw(st.lists(versions, min_size=1, max_size=40, unique=True))
        # Identical versions in two runs: what both zones hold mid-evolve.
        shared = [v for v in previous if draw(st.booleans())][:6]
        entries = [
            make_entry(definition, d, m, ts, gid)
            for d, m, ts in sorted(set(drawn) | set(shared))
        ]
        runs.insert(0, builder.build(f"r{gid}", entries, Zone.GROOMED, 0, gid, gid))
        previous = drawn
    return definition, hierarchy, runs


@st.composite
def scans(draw, definition, runs):
    """A RangeScanQuery: points, prefixes, block edges, empty, unbounded."""
    hashed = bool(definition.equality_columns)
    query_ts = draw(st.sampled_from([0, 1, MAX_TS // 2, MAX_TS, 1 << 60]))
    device = draw(st.integers(0, DEVICES))
    low = draw(st.integers(-1, MSGS))
    high = draw(st.integers(-1, MSGS + 1))
    edge = draw(st.booleans())
    if edge:  # start exactly on some block's first entry
        run = draw(st.sampled_from(runs))
        block = draw(st.integers(0, run.header.num_data_blocks - 1))
        first = run.block_view(block).entry(0)
        device, low = (
            (first.equality_values[0], first.sort_values[0]) if hashed
            else first.sort_values
        )
    if hashed:
        lower = draw(st.sampled_from([None, (low,)]))
        upper = draw(st.sampled_from([None, (high,)]))
        return RangeScanQuery((device,), lower, upper, query_ts)
    lower = draw(st.sampled_from([None, (device,), (device, low)]))
    upper = draw(st.sampled_from([None, (device,), (device, high)]))
    return RangeScanQuery((), lower, upper, query_ts)


class Observed:
    """Entries, probe and decode counts and the block-fetch sequence of
    one action."""

    def __init__(self, hierarchy, runs, action):
        for run in runs:
            run.drop_decode_cache()
        fetched = []
        real_read = hierarchy.read

        def recording_read(block_id, *args, **kwargs):
            fetched.append(block_id)
            return real_read(block_id, *args, **kwargs)

        decode = hierarchy.stats.decode
        probes, decodes = decode.raw_key_probes, decode.entry_decodes
        hierarchy.read = recording_read
        try:
            self.result = action()
        finally:
            del hierarchy.read
        self.probes = decode.raw_key_probes - probes
        self.decodes = decode.entry_decodes - decodes
        self.fetched = fetched
        self.counters = (self.probes, self.decodes, self.fetched)


def executor_for(definition, runs, **options):
    return QueryExecutor(definition, collect_runs=lambda: list(runs), **options)


def decoded(hits):
    return [view.entry(i) for _, view, i in hits]


def flat(hit_lists):
    """The replaced chain's per-block hit lists as the kernel's one list."""
    return [hit for hits in hit_lists for hit in hits]


def assert_scan_matches(
    hierarchy, run, lower, upper, ts, hash_value=None, use_offset_array=True
):
    """One run scanned by the kernel (through ``scan_run``), by the
    replaced chain and by the per-entry loop, each from cold."""
    arguments = (run, lower, upper, ts, hash_value, use_offset_array)
    kernel = Observed(hierarchy, [run], lambda: list(scan_run(*arguments)))
    chain = Observed(
        hierarchy, [run], lambda: decoded(flat(chain_search_run_hits(*arguments)))
    )
    oracle = Observed(hierarchy, [run], lambda: [
        entry for _, entry in reference_search_run_raw(*arguments)
    ])
    assert kernel.result == chain.result == oracle.result
    assert kernel.counters == chain.counters == oracle.counters
    return kernel


def assert_resumed_scan_matches(hierarchy, run, ordinal, upper, ts, first_only):
    """The ``lo == hi`` entry: a scan told where to start makes no probe
    of its own and equals the replaced forward scan from that ordinal."""
    floor = ts_floor(ts)
    chain = Observed(hierarchy, [run], lambda: decoded(flat(chain_scan_visible(
        run, ordinal, upper, floor, first_only
    ))))
    # Whatever the lower key -- below, inside or above the run -- nothing
    # is searched for.
    for lower in (b"", upper[:-1], b"\xff" * 9):
        kernel = Observed(hierarchy, [run], lambda: decoded(run.scan_visible(
            lower, ordinal, ordinal, upper, floor, first_only
        )))
        assert kernel.result == chain.result
        assert kernel.counters == chain.counters
    return kernel


def assert_batch_matches(hierarchy, run, pairs, query_ts, use_offset_array=True):
    """One run searched for a sorted batch by the kernel, by the replaced
    chain (the same single pass: equal to the probe) and by the per-entry
    loop (which re-enters per key when snapshots differ: a bound)."""
    arguments = (run, pairs, query_ts, use_offset_array)
    kernel = Observed(hierarchy, [run], lambda: batch_lookup_in_run(*arguments))
    chain = Observed(
        hierarchy, [run], lambda: chain_batch_lookup_in_run(*arguments)
    )
    oracle = Observed(
        hierarchy, [run], lambda: reference_batch_lookup_in_run(*arguments)
    )
    assert kernel.result == chain.result == oracle.result
    assert kernel.counters == chain.counters
    if isinstance(query_ts, int) or len(set(query_ts)) <= 1:
        assert kernel.counters == oracle.counters
    else:  # one pass with the cursor kept, where the oracle re-enters
        assert kernel.probes <= oracle.probes + len(pairs)
        assert set(kernel.fetched) <= set(oracle.fetched)
    return kernel


def ts_of_floor(floor):
    """The snapshot whose ``ts_floor`` is ``floor``."""
    if len(floor) != 8:  # the two saturated ends
        return -1 if floor else UINT64_MAX
    return UINT64_MAX - int.from_bytes(floor, "big")


def batch_visible_through(reference):
    """``IndexRun.batch_visible`` answered by a replaced run-level batch
    search, for swapping under an executor."""

    def batch_visible(run, keys, buckets, floors, slots, out, intent):
        assert intent is ReadIntent.QUERY  # an executor query's reads
        shift = 64 - run.definition.hash_bits
        pairs = [
            (keys[slot], 0 if buckets is None else buckets[slot] << shift)
            for slot in slots
        ]
        found = reference(
            run, pairs, [ts_of_floor(floors[slot]) for slot in slots],
            use_offset_array=buckets is not None,
        )
        for slot, entry in zip(slots, found):
            if entry is not None:
                out[slot] = (Answered(entry), 0)

    return batch_visible


class Answered:
    """A decoded reference answer in the kernel's ``(view, i)`` hit shape."""

    def __init__(self, entry):
        self._entry = entry

    def entry(self, _index):
        return self._entry


def assert_lookup_matches(hierarchy, run, key, ts, hash_value, use_offset_array):
    """``lookup_run`` against the per-ordinal oracle, from cold."""
    arguments = (run, key, ts, hash_value, use_offset_array)
    one = Observed(hierarchy, [run], lambda: lookup_run(*arguments))
    reference = Observed(
        hierarchy, [run], lambda: reference_lookup_key_in_run(*arguments)
    )
    assert one.result == reference.result
    assert (one.probes, one.decodes, one.fetched) == (
        reference.probes, reference.decodes, reference.fetched
    )
    return one


class TestRangeScan:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_both_strategies_match_the_oracle(self, data):
        definition, hierarchy, runs = data.draw(fixtures())
        query = data.draw(scans(definition, runs))
        bounds = compute_scan_bounds(definition, query)
        candidates = [run for run in runs if run_may_contain(run, query)]
        executor = executor_for(definition, runs)

        heap = Observed(hierarchy, runs, lambda: list(reference_merge_runs_iter(
            candidates, *bounds[:2], query.query_ts, bounds.hash_value
        )))
        by_set = Observed(hierarchy, runs, lambda: reference_reconcile_set(
            candidates, *bounds[:2], query.query_ts, bounds.hash_value
        ))
        assert heap.result == by_set.result  # the oracles agree

        for strategy in ReconcileStrategy:
            scan = Observed(
                hierarchy, runs, lambda: executor.scan(*query, strategy=strategy)
            )
            assert scan.result == heap.result
            assert scan.probes == heap.probes == by_set.probes
            # Run by run: the set oracle's order, the heap oracle's set.
            assert scan.fetched == by_set.fetched
            assert sorted(scan.fetched) == sorted(heap.fetched)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_one_run_scanned_matches_the_chain_and_the_oracle(self, data):
        definition, hierarchy, runs = data.draw(fixtures())
        query = data.draw(scans(definition, runs))
        bounds = compute_scan_bounds(definition, query)
        assert_scan_matches(
            hierarchy, data.draw(st.sampled_from(runs)), *bounds[:2],
            query.query_ts, bounds.hash_value, data.draw(st.booleans()),
        )

    def test_a_scan_decodes_only_the_entries_it_returns(self):
        hierarchy = StorageHierarchy()
        builder = RunBuilder(HASHED, hierarchy, data_block_bytes=160)
        old = builder.build("old", [
            make_entry(HASHED, 1, m, ts, 0) for m in range(30) for ts in (1, 2, 3)
        ], Zone.GROOMED, 0, 0, 0)
        new = builder.build("new", [
            make_entry(HASHED, 1, m, 9, 1) for m in range(0, 30, 2)
        ], Zone.GROOMED, 0, 1, 1)
        executor = executor_for(HASHED, [new, old])
        decode = hierarchy.stats.decode
        for strategy in ReconcileStrategy:
            for run in (new, old):
                run.drop_decode_cache()
            before = decode.entry_decodes
            entries = executor.scan((1,), strategy=strategy)
            assert len(entries) == 30
            assert decode.entry_decodes - before == 30  # not 30 + 15


@st.composite
def point_keys(draw, definition, count):
    hashed = bool(definition.equality_columns)
    keys = draw(st.lists(
        st.tuples(st.integers(0, DEVICES), st.integers(-1, MSGS)),
        min_size=1, max_size=count,
    ))
    return [((d,), (m,)) if hashed else ((), (d, m)) for d, m in keys]


class TestLookups:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_run_level_lookups_match_the_oracle(self, data):
        definition, hierarchy, runs = data.draw(fixtures())
        run = data.draw(st.sampled_from(runs))
        keys = sorted({
            (key, hash_value or 0)
            for key, hash_value in (
                encode_point_key(definition, eq, sort)
                for eq, sort in data.draw(point_keys(definition, 12))
            )
        })
        use_offset_array = data.draw(st.booleans())
        query_ts = data.draw(st.sampled_from([
            0, MAX_TS // 2, 1 << 60,
            [data.draw(st.integers(0, MAX_TS)) for _ in keys],  # one per key
        ]))

        assert_batch_matches(hierarchy, run, keys, query_ts, use_offset_array)

        for n, (key, hash_value) in enumerate(keys):
            ts = query_ts if isinstance(query_ts, int) else query_ts[n]
            assert_lookup_matches(hierarchy, run, key, ts, hash_value, use_offset_array)

    @pytest.mark.parametrize(
        "definition", [HASHED, UNBUCKETED], ids=["hashed", "unbucketed"]
    )
    @pytest.mark.parametrize("handle", ["built", "reopened"])
    @pytest.mark.parametrize("block_bytes", HARD_BLOCK_BYTES, ids="{}B".format)
    def test_exact_key_kernel_hard_cases(self, definition, handle, block_bytes):
        """The fused kernel where it leaves its one block or finds nothing.

        Sixteen versions of one key span several small blocks, so at an
        old snapshot the newest versions fill the probed block and the
        visible one sits in a later block (the hand-over to the forward
        scan); every block's first key is looked up (a key on a fence),
        so are a key past the run's last entry, keys between entries and
        -- hashed -- a key whose offset-array bucket is empty.  Each under
        the offset array on and off, on the handle the build returns and on
        one reopened from its header's bytes (as recovery opens a run),
        against the per-ordinal oracle: entry, probes, decodes and block
        fetches in order.
        """
        hashed = bool(definition.equality_columns)
        hierarchy = StorageHierarchy()
        builder = RunBuilder(definition, hierarchy, data_block_bytes=block_bytes)
        versions = (
            [(1, 3, ts) for ts in range(1, 17)]
            + [(d, m, ts) for d in range(4) for m in (0, 5, 9) for ts in (2, 30)]
        )
        entries = [
            make_entry(definition, d, m, ts, 0) for d, m, ts in sorted(set(versions))
        ]
        run = builder.build("hard", entries, Zone.GROOMED, 0, 0, 0)
        assert run.header.num_data_blocks >= 6
        if handle == "reopened":
            stored = run.header.to_bytes(definition)
            run = IndexRun(
                definition, RunHeader.from_bytes(definition, stored), hierarchy
            )

        def key_of(device, msg):
            eq, sort = ((device,), (msg,)) if hashed else ((), (device, msg))
            return encode_point_key(definition, eq, sort)

        keys = {key_of(d, m) for d in range(-1, 6) for m in (-1, 0, 3, 4, 5, 9, 10)}
        keys |= {  # a key equal to a block's first key
            (
                meta.first_sort_key[:-8],
                int.from_bytes(meta.first_sort_key[:8], "big") if hashed else None,
            )
            for meta in run.header.block_meta
        }
        absent = [key_of(d, 0) for d in range(6, 200)]
        last_key = entry_at(run, run.entry_count - 1).key_bytes(definition)
        keys.add(next(pair for pair in absent if pair[0] > last_key))
        if hashed:  # a key whose offset-array bucket holds nothing
            keys.add(next(
                pair for pair in absent
                if len(set(narrow_with_offset_array(run, pair[1]))) == 1
            ))
        crossed = False
        for key, hash_value in sorted(keys, key=lambda pair: pair[0]):
            for ts in (0, 1, 2, 8, 16, 29, 30, 1 << 60):
                for use_offset_array in (True, False):
                    observed = assert_lookup_matches(
                        hierarchy, run, key, ts, hash_value, use_offset_array
                    )
                    crossed |= (
                        observed.result is not None
                        and len({b.ordinal for b in observed.fetched}) >= 3
                    )
        assert crossed  # the visible version really sat blocks away

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_executor_point_lookup_matches_the_oracle(self, data):
        """``lookup`` prunes inline and searches with the fused
        kernel; the oracle builds the scan probe and the candidate list
        and searches per ordinal.  Same entry, probes, decodes and block
        fetches in order, and the same runs handed to ``on_query_done``."""
        definition, hierarchy, runs = data.draw(fixtures())
        options = {"use_offset_array": data.draw(st.booleans())}
        released = []
        executor = executor_for(
            definition, runs, on_query_done=released.append, **options
        )
        for eq, sort in data.draw(point_keys(definition, 6)):
            lookup = PointLookup(eq, sort, data.draw(
                st.sampled_from([0, 1, MAX_TS // 2, MAX_TS, 1 << 60])
            ))
            expected = Observed(hierarchy, runs, lambda: reference_point_lookup(
                definition, runs, lookup, **options
            ))
            got = Observed(hierarchy, runs, lambda: executor.lookup(*lookup))
            entry, searched = expected.result
            assert got.result == entry
            assert (got.probes, got.decodes, got.fetched) == (
                expected.probes, expected.decodes, expected.fetched
            )
            assert released.pop() == searched and not released
            assert executor.lookup(*lookup) == entry
            released.clear()

    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_executor_batch_lookup_matches_the_oracle(self, monkeypatch, data):
        definition, hierarchy, runs = data.draw(fixtures())
        mixed = data.draw(st.booleans())
        lookups = [
            PointLookup(eq, sort, data.draw(st.integers(0, MAX_TS)) if mixed else 1 << 60)
            for eq, sort in data.draw(point_keys(definition, 16))
        ]
        executor = executor_for(definition, runs)
        got = Observed(hierarchy, runs, lambda: executor.batch_lookup(lookups))
        assert got.result == [executor.lookup(*lk) for lk in lookups]

        def through(reference):
            monkeypatch.setattr(
                IndexRun, "batch_visible", batch_visible_through(reference)
            )
            try:
                return Observed(
                    hierarchy, runs, lambda: executor.batch_lookup(lookups)
                )
            finally:
                monkeypatch.undo()

        chain = through(chain_batch_lookup_in_run)
        assert got.result == chain.result
        assert got.counters == chain.counters
        expected = through(reference_batch_lookup_in_run)
        assert got.result == expected.result
        if mixed:  # one pass with the cursor kept, where the oracle re-enters
            assert got.probes <= expected.probes + len(lookups) * len(runs)
            assert set(got.fetched) <= set(expected.fetched)
        else:
            assert got.counters == expected.counters

    def test_a_narrower_search_range_can_cost_one_more_probe(self):
        """The falsifying example of "a mixed batch may only probe less".

        One block holds five entries in stored order (2,0) (2,1) (3,0)
        (1,0)@2 (1,0)@1.  Key (2,1) at snapshot 0 has no visible version
        and leaves the cursor on ordinal 1; the search for (3,0) then runs
        over [1, 5) -- midpoints 3, 2, 1 -- where the oracle, re-entering
        with the cursor reset, searches [0, 5) with midpoints 2, 1.
        """
        hierarchy = StorageHierarchy()
        builder = RunBuilder(HASHED, hierarchy, data_block_bytes=4096)
        older = builder.build(
            "r0", [make_entry(HASHED, 0, 0, 1, 0)], Zone.GROOMED, 0, 0, 0
        )
        newer = builder.build(
            "r1",
            [
                make_entry(HASHED, device, msg, ts, 1)
                for device, msg, ts in
                [(2, 0, 1), (2, 1, 1), (3, 0, 1), (1, 0, 2), (1, 0, 1)]
            ],
            Zone.GROOMED, 0, 1, 1,
        )
        stored = newer.block_view(0)
        assert [
            (*stored.entry(i).equality_values, *stored.entry(i).sort_values)
            for i in range(stored.count)
        ] == [(2, 0), (2, 1), (3, 0), (1, 0), (1, 0)]
        runs = [newer, older]
        lookups = [PointLookup((2,), (1,), 0), PointLookup((3,), (0,), 1)]
        keys = [
            encode_point_key(HASHED, lookup.equality_values, lookup.sort_values)
            for lookup in lookups
        ]
        assert keys == sorted(keys)

        expected = Observed(hierarchy, runs, lambda: reference_batch_lookup_in_run(
            newer, keys, [0, 1]
        ))
        got = Observed(hierarchy, runs, lambda: batch_lookup_in_run(
            newer, keys, [0, 1]
        ))
        assert got.result == expected.result
        assert got.result[0] is None and got.result[1].begin_ts == 1
        assert (got.probes, expected.probes) == (9, 8)
        assert got.fetched == expected.fetched
        assert assert_batch_matches(hierarchy, newer, keys, [0, 1]).probes == 9

        executor = executor_for(HASHED, runs)
        assert executor.batch_lookup(lookups) == [
            executor.lookup(*lookup) for lookup in lookups
        ]


def hard_run(definition, block_bytes):
    """One run of small blocks: sixteen versions of key (1, 3), so at an
    old snapshot its newer versions fill whole blocks and the visible one
    sits blocks later, and two versions of every other key, so most keys
    straddle a block boundary somewhere."""
    hierarchy = StorageHierarchy()
    builder = RunBuilder(definition, hierarchy, data_block_bytes=block_bytes)
    versions = (
        [(1, 3, ts) for ts in range(1, 17)]
        + [(d, m, ts) for d in range(4) for m in (0, 5, 9) for ts in (2, 30)]
    )
    run = builder.build(
        "hard",
        [make_entry(definition, d, m, ts, 0) for d, m, ts in sorted(set(versions))],
        Zone.GROOMED, 0, 0, 0,
    )
    assert run.header.num_data_blocks >= 6
    return hierarchy, run


def hard_keys(definition, run):
    """Sorted ``(key, hash)`` pairs: stored keys, keys between and around
    them, every block's first key, keys above the last entry and --
    hashed -- two absent keys that sort after everything in one bucket
    (the second finds the cursor already past its bucket) and one whose
    bucket is empty."""
    hashed = bool(definition.equality_columns)

    def key_of(device, msg):
        eq, sort = ((device,), (msg,)) if hashed else ((), (device, msg))
        key, hash_value = encode_point_key(definition, eq, sort)
        return key, hash_value or 0

    keys = {key_of(d, m) for d in range(-1, 6) for m in (-1, 0, 3, 4, 5, 9, 10)}
    keys |= {
        (
            meta.first_sort_key[:-8],
            int.from_bytes(meta.first_sort_key[:8], "big") if hashed else 0,
        )
        for meta in run.header.block_meta
    }
    absent = [key_of(d, 0) for d in range(6, 400)]
    last_key = entry_at(run, run.entry_count - 1).key_bytes(definition)
    keys.add(next(pair for pair in absent if pair[0] > last_key))
    if hashed:
        fences = run.bucket_fences
        shift = 64 - definition.hash_bits
        keys.add(next(  # an empty bucket
            pair for pair in absent
            if fences[pair[1] >> shift] == fences[(pair[1] >> shift) + 1]
        ))
        for bucket in range(len(fences) - 1):  # two keys past a bucket's end
            if fences[bucket] == fences[bucket + 1]:
                continue
            top = entry_at(run, fences[bucket + 1] - 1).key_bytes(definition)
            beyond = [
                pair for pair in absent
                if pair[1] >> shift == bucket and pair[0] > top
            ]
            if len(beyond) >= 2:
                keys.update(beyond[:2])
                break
        else:
            raise AssertionError("no bucket with two absent keys past its end")
    return sorted(keys)


HARD_SNAPSHOTS = (0, 1, 2, 8, 16, 29, 30, 1 << 60)
HARD_SHAPES = [
    pytest.param(definition, block_bytes, id=f"{name}-{block_bytes}B")
    for name, definition in (("hashed", HASHED), ("unbucketed", UNBUCKETED))
    for block_bytes in HARD_BLOCK_BYTES
]


@pytest.mark.parametrize("definition,block_bytes", HARD_SHAPES)
class TestHardCases:
    """The inputs a property test finds rarely, built by hand."""

    def test_scans(self, definition, block_bytes):
        """Every device's whole range and sub-ranges (bounds on, between
        and beyond stored keys), ``upper_exclusive == b""`` from a target
        below the first key, inside the run and above the last, and a
        hashed scan of an empty bucket -- at snapshots before, inside and
        after the sixteen versions that straddle the blocks."""
        hierarchy, run = hard_run(definition, block_bytes)
        hashed = bool(definition.equality_columns)
        queries = []
        for device in range(-1, 6):
            for low, high in [(None, None), (3, 3), (0, 5), (4, 9), (10, None)]:
                lower = None if low is None else (low,)
                upper = None if high is None else (high,)
                if hashed:
                    queries.append(RangeScanQuery((device,), lower, upper))
                else:
                    queries.append(RangeScanQuery(
                        (), (device, *(lower or ())), (device, *(upper or ()))
                    ))
        cases = [
            (*compute_scan_bounds(definition, query)[:2], bounds_hash)
            for query in queries
            for bounds_hash in [compute_scan_bounds(definition, query).hash_value]
        ]
        middle = entry_at(run, run.entry_count // 2).key_bytes(definition)
        cases += [
            (lower, UNBOUNDED, None) for lower in (b"", middle, b"\xff" * 40)
        ]
        if hashed:
            empty = next(
                pair for pair in hard_keys(definition, run)
                if len(set(narrow_with_offset_array(run, pair[1]))) == 1
            )
            cases.append((empty[0], empty[0] + b"\xff", empty[1]))
        straddled = False
        for lower, upper, hash_value in cases:
            for ts in HARD_SNAPSHOTS:
                for use_offset_array in (True, False):
                    observed = assert_scan_matches(
                        hierarchy, run, lower, upper, ts, hash_value,
                        use_offset_array,
                    )
                    straddled |= (
                        len(observed.result) == 1
                        and len({b.ordinal for b in observed.fetched}) >= 3
                    )
        assert straddled  # one key's visible version really sat blocks away

    def test_scans_told_where_to_start(self, definition, block_bytes):
        """``lo == hi`` at every ordinal, the run's end included."""
        hierarchy, run = hard_run(definition, block_bytes)
        for ordinal in range(run.entry_count + 1):
            exact = (
                entry_at(run, ordinal).key_bytes(definition) + b"\x00"
                if ordinal < run.entry_count else b"\x00"
            )
            for upper, first_only in [(UNBOUNDED, False), (exact, True)]:
                for ts in (1, 16, 1 << 60):
                    made = assert_resumed_scan_matches(
                        hierarchy, run, ordinal, upper, ts, first_only
                    )
                    assert made.probes <= run.entry_count - ordinal

    def test_batches(self, definition, block_bytes):
        """Stored, absent, fence, past-the-end, empty-bucket and
        already-passed-bucket keys in one batch: at one snapshot, and
        mixing old and new snapshots key by key."""
        hierarchy, run = hard_run(definition, block_bytes)
        keys = hard_keys(definition, run)
        mixes = list(HARD_SNAPSHOTS) + [
            [HARD_SNAPSHOTS[(n * step) % len(HARD_SNAPSHOTS)] for n in range(len(keys))]
            for step in (1, 3, 5)
        ]
        spilled = False
        for query_ts in mixes:
            for use_offset_array in (True, False):
                observed = assert_batch_matches(
                    hierarchy, run, keys, query_ts, use_offset_array
                )
                spilled |= any(
                    entry is not None and entry.begin_ts < 8
                    for entry in observed.result
                )
        assert spilled  # a batched key was answered blocks past its newest

    def test_purged_lookups(self, definition, block_bytes):
        """Every hard key at every snapshot against a purged run: each
        lookup fetches cold views from shared storage (the blocks are
        dropped from the local tiers before each), and must return the
        oracle's entry, probes, decodes and block fetches in order -- among
        them windows the fences leave empty (a key below the run's first,
        a bucket holding nothing or lying outside the key's block) and
        versions that run into a later block (the hand-over)."""
        hierarchy, run = hard_run(definition, block_bytes)
        hashed = bool(definition.equality_columns)
        purged = [run.data_block_id(i) for i in range(run.header.num_data_blocks)]
        query_reads = hierarchy.stats.intents[ReadIntent.QUERY]
        empty_window = crossed = False
        for key, hash_value in hard_keys(definition, run):
            hash_value = hash_value if hashed else None
            for use_offset_array in (True, False):
                lo, hi = narrow_with_offset_array(
                    run, hash_value if use_offset_array else None
                )
                block_lo, block_hi = key_position_bounds(run, key)
                lo, hi = max(lo, min(block_lo, hi)), min(hi, max(block_hi, lo))
                for ts in HARD_SNAPSHOTS:
                    seen = []
                    for search in (lookup_run, reference_lookup_key_in_run):
                        hierarchy.drop_from_cache(purged)
                        shared_reads = query_reads.shared_reads
                        seen.append(Observed(hierarchy, [run], lambda: search(
                            run, key, ts, hash_value, use_offset_array
                        )))
                        assert query_reads.shared_reads - shared_reads == len(
                            seen[-1].fetched
                        )
                    kernel, reference = seen
                    assert kernel.result == reference.result
                    assert kernel.counters == reference.counters
                    empty_window |= lo >= hi and lo < run.entry_count
                    crossed |= kernel.result is not None and len(set(kernel.fetched)) >= 2
        assert empty_window and crossed

    def test_a_single_entry_run(self, definition, block_bytes):
        hashed = bool(definition.equality_columns)
        hierarchy = StorageHierarchy()
        run = RunBuilder(definition, hierarchy, data_block_bytes=block_bytes).build(
            "one", [make_entry(definition, 2, 5, 7, 0)], Zone.GROOMED, 0, 0, 0
        )
        pairs = sorted(
            (key, hash_value or 0)
            for key, hash_value in (
                encode_point_key(definition, *(
                    ((d,), (m,)) if hashed else ((), (d, m))
                ))
                for d in (1, 2, 3) for m in (4, 5, 6)
            )
        )
        for ts in (0, 6, 7, 1 << 60):
            assert_batch_matches(hierarchy, run, pairs, ts)
            assert_batch_matches(hierarchy, run, pairs, [ts, 7] * 4 + [ts])
            for key, hash_value in pairs:
                assert_scan_matches(
                    hierarchy, run, key, key + b"\x00", ts, hash_value if hashed else None
                )
                assert_lookup_matches(hierarchy, run, key, ts, hash_value, True)
            assert_scan_matches(hierarchy, run, b"", UNBOUNDED, ts)
            for ordinal in (0, 1):
                assert_resumed_scan_matches(
                    hierarchy, run, ordinal, UNBOUNDED, ts, False
                )


def mutant(method, old, new):
    """``method`` recompiled with one piece of its source changed."""
    source = textwrap.dedent(inspect.getsource(method))
    assert source.count(old) == 1, old
    namespace = {}
    exec(source.replace(old, new), dict(vars(run_module)), namespace)
    return namespace[method.__name__]


CLAMP = "lo, hi = max(lo, min(block_lo, hi)), min(hi, max(block_hi, lo))"
MUTANTS = [
    # The fences intersected with the range but not clamped onto it: a
    # bracket that lies past the range moves the start of the scan.
    ("scan_visible", CLAMP, "lo, hi = max(lo, block_lo), min(hi, block_hi)"),
    # No fences at all: same answers, probes in blocks outside the range.
    ("scan_visible", CLAMP, "pass"),
    # ``answered`` not reset at a new key: a key whose newest version is
    # newer than the snapshot loses its visible one.
    ("scan_visible", "                answered = False\n", ""),
    # The hit list restarted at each block: a scan that crosses a block
    # boundary answers with its last block's hits only.
    ("scan_visible", "hits = []\n    while True:\n", "while True:\n        hits = []\n"),
    # The bucket's first ordinal overriding the cursor: a search widened
    # backwards over entries already passed.
    ("batch_visible", "if fences[bucket] > lo:", "if True:"),
    # The cursor not carried from key to key: every search starts over.
    ("batch_visible", "cursor = lo", "cursor = 0"),
    # The window held across keys but never resolved again: a probe outside
    # it reads the wrong block's entries.
    ("batch_visible", "if not start <= ordinal < end:", "if end == 0:"),
    # The cold bisection's midpoint off by one (the lower of two middles):
    # the same answers, other probes.
    ("lookup_visible", "mid = (lo + hi) // 2", "mid = (lo + hi - 1) // 2"),
    # An empty window resolved one block too far on.
    ("lookup_visible", "b = bisect_right(cum, lo) - 1", "b = bisect_right(cum, lo)"),
]


class TestMutantsAreCaught:
    """Each kernel broken one way at a time; the hard cases must notice."""

    def run_hard_cases(self):
        for parameters in HARD_SHAPES:
            cases = TestHardCases()
            cases.test_scans(*parameters.values)
            cases.test_scans_told_where_to_start(*parameters.values)
            cases.test_batches(*parameters.values)
            cases.test_purged_lookups(*parameters.values)

    def test_the_kernels_as_written_pass(self):
        self.run_hard_cases()

    @pytest.mark.parametrize(
        "name,old,new", MUTANTS,
        ids=[f"{name}-{n}" for n, (name, _, _) in enumerate(MUTANTS)],
    )
    def test_mutant(self, monkeypatch, name, old, new):
        monkeypatch.setattr(
            IndexRun, name, mutant(getattr(IndexRun, name), old, new)
        )
        with pytest.raises((AssertionError, IndexError, UnboundLocalError)):
            self.run_hard_cases()


class TestColumnEncodedBatches:
    """``batch_lookup`` hands its keys over column-major; they must be the
    keys ``encode_point_key`` builds one at a time."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_column_encoded_keys_are_the_per_key_ones(self, data):
        definition = data.draw(st.sampled_from([HASHED, UNBUCKETED]))
        keys = data.draw(point_keys(definition, 16))
        columns = list(zip(*[eq + sort for eq, sort in keys]))
        encoded, hashes = encode_point_keys(definition, columns)
        per_key = [encode_point_key(definition, eq, sort) for eq, sort in keys]
        assert encoded == [key for key, _ in per_key]
        assert hashes == [hash_value or 0 for _, hash_value in per_key]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_every_entry_point_agrees(self, data):
        definition, hierarchy, runs = data.draw(fixtures())
        mixed = data.draw(st.booleans())
        lookups = [
            PointLookup(eq, sort, data.draw(st.integers(0, MAX_TS)) if mixed else 7)
            for eq, sort in data.draw(point_keys(definition, 16))
        ]
        expected = [executor_for(definition, runs).lookup(*lk) for lk in lookups]
        columns = list(zip(*[lk.equality_values + lk.sort_values for lk in lookups]))
        timestamps = [lk.query_ts for lk in lookups]
        executor = QueryExecutor(definition, lambda: list(runs))
        assert executor.batch_lookup(lookups) == expected
        assert executor.batch_lookup_columns(columns, timestamps) == expected
        if not mixed:
            assert executor.batch_lookup_columns(columns, 7) == expected

    def test_an_int_finds_the_float_it_was_stored_as(self):
        definition = IndexDefinition(sort_columns=(ColumnSpec("w", ColumnType.FLOAT64),))
        run = RunBuilder(definition, StorageHierarchy()).build(
            "f",
            [
                IndexEntry.create(definition, (), (w,), (), 1, RID(Zone.GROOMED, 0, i))
                for i, w in enumerate([1, 2.5, 3.0])
            ],
            Zone.GROOMED, 0, 0, 0,
        )
        executor = executor_for(definition, [run])
        assert [
            hit and hit.sort_values
            for hit in executor.batch_lookup_columns([(1.0, 2, 3)], 5)
        ] == [(1.0,), None, (3.0,)]
        assert executor.lookup((), (3,)).sort_values == (3.0,)
        assert [e.sort_values for e in executor.scan((), (2,), (3,))] == [
            (2.5,), (3.0,)
        ]

    def test_malformed_batches_are_query_errors(self):
        executor = executor_for(HASHED, [])
        assert executor.batch_lookup([]) == []
        for lookups in (
            [PointLookup((1,), (1,)), PointLookup((1,), ())],  # ragged
            [PointLookup((), (1, 1))],  # right width, wrong split
            [PointLookup((1,), (1, 2))],  # one column too many
            [PointLookup((1,), ("x",))],  # a str on an INT64 column
            [PointLookup((1.5,), (1,))],
        ):
            with pytest.raises(QueryError):
                executor.batch_lookup(lookups)
        with pytest.raises(QueryError):
            executor.batch_lookup_columns([(1, 2)], 7)  # a key column short
        with pytest.raises(QueryError):
            executor.lookup((1,), ("x",))


@pytest.mark.parametrize("definition", [HASHED, UNBUCKETED])
def test_point_key_is_the_degenerate_scan_bound(definition):
    """``encode_point_key`` builds what the two ``RangeScanQuery`` hops built."""
    hashed = bool(definition.equality_columns)
    eq, sort = ((3,), (7,)) if hashed else ((), (3, 7))
    via_scan = compute_scan_bounds(
        definition, RangeScanQuery(eq, sort or None, sort or None)
    )
    assert encode_point_key(definition, eq, sort) == (
        via_scan.lower_key, via_scan.hash_value
    )
