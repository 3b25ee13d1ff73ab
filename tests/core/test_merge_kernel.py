"""The block-and-column maintenance kernel against the per-entry oracle.

``tests/reference_merge.py`` keeps the pipeline the kernel replaced: the
per-entry ``iter_raw``, the heap K-way merge, the per-entry evolve splice
and the builder's per-entry loop.  Over 1-6 overlapping runs -- hashed and
unbucketed definitions, 64 B - 4 KiB blocks, identical
versions in two runs, duplicate sort keys inside one run (which straddle
batch boundaries), one run wholly below another (no batch needs a sort),
entries larger than ``data_block_bytes``, empty runs and no runs at all,
``retention_ts`` below / inside / above the versions -- the kernel must
produce the same pairs, charge the same counters and build the same bytes.

It must also fetch what the heap fetched, *when* the heap fetched it: every
``hierarchy.read`` is logged with the number of pairs the consumer had
received by then, under consumers that pull 1, 7 or all pairs at a time
(the ``ShardCopyStream.step(budget)`` contract that keeps pumped
migrations byte-identical to synchronous ones).
"""

import hashlib
from itertools import islice

from hypothesis import given, settings, strategies as st

from repro.core.builder import RunBuilder
from repro.core.definition import ColumnSpec, ColumnType, IndexDefinition
from repro.core.entry import IndexEntry, RID, Zone, begin_ts_of_sort_key, user_key_of
from repro.core.evolve import EvolveController, RidSplices, Watermark
from repro.core.ids import RunIdAllocator
from repro.core.index import UmziConfig
from repro.core.levels import LevelConfig
from repro.core.merge import merge_blocks
from repro.core.run import Synopsis
from repro.core.runlist import RunList
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import ReadIntent
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.schema import IndexSpec, TableSchema

from tests.conftest import merged_blob_pairs, shared_bytes_digest
from tests.reference_merge import (
    reference_build_from_blobs,
    reference_iter_raw,
    reference_merge_blobs,
    reference_spliced_blobs,
)

HASHED = IndexDefinition(
    equality_columns=(ColumnSpec("device"),),
    sort_columns=(ColumnSpec("msg"),),
    included_columns=(ColumnSpec("body", ColumnType.BYTES),),
    hash_bits=3,
)
UNBUCKETED = IndexDefinition(
    sort_columns=(ColumnSpec("device"), ColumnSpec("msg")),
    included_columns=(ColumnSpec("body", ColumnType.BYTES),),
)
DEVICES, MSGS, MAX_TS = 5, 6, 12
COUNTERS = ("raw_key_probes", "blob_copies", "entry_decodes", "evolve_blob_splices")
LEVELS = LevelConfig(
    groomed_levels=3, post_groomed_levels=2, max_runs_per_level=2, size_ratio=2
)


def user_key(definition, device, msg):
    """The user key of ``make_entry(definition, device, msg, ...)``."""
    return make_entry(definition, device, msg, 1, b"", 0).key_bytes(definition)


def make_entry(definition, device, msg, begin_ts, body, gid):
    hashed = bool(definition.equality_columns)
    return IndexEntry.create(
        definition,
        (device,) if hashed else (),
        (msg,) if hashed else (device, msg),
        (body,),
        begin_ts,
        RID(Zone.GROOMED, gid, device * 100 + msg),
    )


@st.composite
def fixtures(draw, min_runs=0):
    """0-6 overlapping runs over one hierarchy, newest first."""
    definition = draw(st.sampled_from([HASHED, UNBUCKETED]))
    hierarchy = StorageHierarchy()
    block_bytes = draw(st.sampled_from([64, 160, 512, 4096]))
    builder = RunBuilder(definition, hierarchy, data_block_bytes=block_bytes)
    versions = st.tuples(
        st.integers(0, DEVICES - 1), st.integers(0, MSGS - 1),
        st.integers(1, MAX_TS),
    )
    # 53 B of key, beginTS and RID per entry: a 100 B body overflows a
    # 64 B block on its own.
    bodies = st.sampled_from([b"", b"\x00", b"b" * 9, b"B" * 100])
    runs, previous = [], []
    for gid in range(draw(st.integers(min_runs, 6))):
        drawn = draw(st.lists(versions, max_size=30, unique=True))
        # Identical versions in two runs: what both zones hold mid-evolve.
        shared = [v for v in previous if draw(st.booleans())][:6]
        picked = sorted(set(drawn) | set(shared))
        # The same sort key twice in one run: the first copy must win, and
        # the second can open the run's next block.
        picked += [v for v in picked[:4] if draw(st.booleans())]
        # A run wholly above the others: its batches have one contributor.
        lift = DEVICES * draw(st.sampled_from([0, 0, 1, 2]))
        entries = [
            make_entry(definition, d + lift, m, ts, draw(bodies), gid)
            for d, m, ts in picked
        ]
        runs.insert(0, builder.build(f"r{gid}", entries, Zone.GROOMED, 0, gid, gid))
        previous = drawn
    return definition, hierarchy, runs


class Pulled:
    """Pairs, counters and the timed block-fetch log of one pair stream.

    ``fetched`` holds ``(pairs handed over before the pull, block id)``
    per ``hierarchy.read``: with ``budget`` 1 that is the exact consumed
    count at which every block was fetched.
    """

    def __init__(self, hierarchy, make_stream, budget=None):
        self.pairs = []
        self.fetched = []
        real_read = hierarchy.read

        def recording_read(block_id, *args, **kwargs):
            assert kwargs.get("intent") is ReadIntent.MAINTENANCE
            self.fetched.append((len(self.pairs), block_id))
            return real_read(block_id, *args, **kwargs)

        decode = hierarchy.stats.decode
        before = decode.snapshot()
        hierarchy.read = recording_read
        try:
            stream = make_stream()
            assert self.fetched == []  # lazy: nothing is read before a pull
            while True:
                pulled = list(islice(stream, budget))
                self.pairs += pulled
                if not pulled or budget is None:
                    break
        finally:
            del hierarchy.read
        self.counters = {
            name: getattr(decode, name) - getattr(before, name)
            for name in COUNTERS
        }


RETENTIONS = st.sampled_from([None, 0, 1, MAX_TS // 2, MAX_TS, MAX_TS + 5, 1 << 70])


class TestMergeMatchesTheHeap:
    @settings(max_examples=300, deadline=None)
    @given(fixture=fixtures(), retention_ts=RETENTIONS)
    def test_pairs_counters_and_timed_fetches(self, fixture, retention_ts):
        definition, hierarchy, runs = fixture
        oracle = Pulled(
            hierarchy, lambda: reference_merge_blobs(runs, retention_ts), 1
        )
        for budget in (1, 7, None):
            kernel = Pulled(
                hierarchy,
                lambda: merged_blob_pairs(runs, retention_ts),
                budget,
            )
            assert kernel.pairs == oracle.pairs
            assert kernel.counters == oracle.counters
            assert [b for _, b in kernel.fetched] == [b for _, b in oracle.fetched]
            if budget == 1:
                assert kernel.fetched == oracle.fetched
            else:
                # A coarser consumer sees each fetch in the step that
                # holds the oracle's consumed count.
                step = budget or len(oracle.pairs) + 1
                assert [n for n, _ in kernel.fetched] == [
                    n - n % step for n, _ in oracle.fetched
                ]

    @settings(max_examples=150, deadline=None)
    @given(fixture=fixtures(), retention_ts=RETENTIONS)
    def test_batches_are_sorted_columns_of_the_same_stream(
        self, fixture, retention_ts
    ):
        definition, hierarchy, runs = fixture
        batches = list(merge_blocks(runs, retention_ts))
        assert all(keys and len(keys) == len(blobs) for keys, blobs in batches)
        assert [
            pair for keys, blobs in batches for pair in zip(keys, blobs)
        ] == list(reference_merge_blobs(runs, retention_ts))

    @settings(max_examples=200, deadline=None)
    @given(
        fixture=fixtures(min_runs=1),
        retention_ts=st.sampled_from([0, 1, MAX_TS // 3, MAX_TS // 2, MAX_TS, 1 << 70]),
        dead=st.sets(
            st.tuples(st.integers(0, 3 * DEVICES - 1), st.integers(0, MSGS - 1)),
            max_size=12,
        ),
    )
    def test_the_column_repair_is_the_per_entry_one(self, fixture, retention_ts, dead):
        """The dead-key repair rides the retention filter a column at a
        time: every horizon, any dead user keys (most of them present in
        the runs), the same pairs, counters and timed fetches as the heap's
        per-entry filter."""
        definition, hierarchy, runs = fixture
        dead_keys = {user_key(definition, d, m) for d, m in dead}
        oracle = Pulled(
            hierarchy,
            lambda: reference_merge_blobs(runs, retention_ts, dead_keys), 1,
        )
        for budget in (1, None):
            kernel = Pulled(
                hierarchy,
                lambda: merged_blob_pairs(runs, retention_ts, dead_keys), budget,
            )
            assert kernel.pairs == oracle.pairs
            assert kernel.counters == oracle.counters
            assert [b for _, b in kernel.fetched] == [b for _, b in oracle.fetched]

    def test_a_batch_boundary_inside_one_keys_versions(self):
        """64 B blocks hold one entry each, so a key's versions spread over
        the batches of two interleaved runs: the first version at or below
        the horizon closes the key across the boundary, and a dead key
        loses every one of its versions there."""
        hierarchy = StorageHierarchy()
        builder = RunBuilder(UNBUCKETED, hierarchy, data_block_bytes=64)
        runs = [
            builder.build(f"r{parity}", [
                make_entry(UNBUCKETED, device, 1, ts, b"", parity)
                for device in (0, 1) for ts in range(1 + parity, 13, 2)
            ], Zone.GROOMED, 0, parity, parity)
            for parity in (1, 0)
        ]
        batches = [keys for keys, _ in merge_blocks(runs)]
        assert any(
            user_key_of(before[-1]) == user_key_of(after[0])
            for before, after in zip(batches, batches[1:])
        )
        dead_keys = {user_key(UNBUCKETED, 1, 1)}
        pairs = list(merged_blob_pairs(runs, 7, dead_keys))
        assert pairs == list(reference_merge_blobs(runs, 7, dead_keys))
        assert [
            (user_key_of(key) == user_key(UNBUCKETED, 0, 1), begin_ts_of_sort_key(key))
            for key, _ in pairs
        ] == [(True, ts) for ts in (12, 11, 10, 9, 8, 7)] + [(False, ts) for ts in (12, 11, 10, 9, 8)]

    def test_a_key_that_moves_a_b_a_keeps_its_live_entries(self):
        """A secondary's shape: the device is the moving key, the msg the
        pk.  The pk lived under A, then B, then A again: B is dead, while
        A -- its live key -- keeps the newest version at or below the
        horizon and everything above it."""
        hierarchy = StorageHierarchy()
        builder = RunBuilder(UNBUCKETED, hierarchy, data_block_bytes=64)
        history = [(0, 2), (1, 5), (0, 9)]  # (device, beginTS), oldest first
        runs = [
            builder.build(f"r{gid}", [make_entry(UNBUCKETED, device, 1, ts, b"", gid)],
                          Zone.GROOMED, 0, gid, gid)
            for gid, (device, ts) in reversed(list(enumerate(history)))
        ]
        dead_keys = {user_key(UNBUCKETED, 1, 1)}
        for horizon, kept in ((6, [(0, 9), (0, 2)]), (10, [(0, 9)]), (4, [(0, 9), (0, 2), (1, 5)])):
            pairs = list(merged_blob_pairs(runs, horizon, dead_keys))
            assert pairs == list(reference_merge_blobs(runs, horizon, dead_keys))
            assert [
                (0 if user_key_of(key) == user_key(UNBUCKETED, 0, 1) else 1,
                 begin_ts_of_sort_key(key))
                for key, _ in pairs
            ] == kept, horizon

    @settings(max_examples=100, deadline=None)
    @given(fixture=fixtures(min_runs=1))
    def test_block_columns_is_iter_raw_a_block_at_a_time(self, fixture):
        definition, hierarchy, runs = fixture
        decode = hierarchy.stats.decode
        for run in runs:
            before = decode.snapshot()
            expected = list(reference_iter_raw(run))
            per_entry = decode.snapshot()
            columns = [
                run.block_columns(bi)
                for bi in range(run.header.num_data_blocks)
            ]
            assert [
                pair for keys, blobs in columns for pair in zip(keys, blobs)
            ] == expected
            for name in COUNTERS:
                assert getattr(decode, name) - getattr(per_entry, name) == (
                    getattr(per_entry, name) - getattr(before, name)
                ), name


def shared_payloads(hierarchy, run_id):
    return [
        hierarchy.shared.read(block_id).payload
        for block_id in hierarchy.shared.namespace_block_ids(run_id)
    ]


def union_synopsis(definition, runs):
    if not runs:
        return Synopsis(tuple([None] * len(definition.key_columns)))
    return Synopsis.union([run.header.synopsis for run in runs])


class TestBuiltRunsAreTheSameBytes:
    @settings(max_examples=200, deadline=None)
    @given(
        fixture=fixtures(),
        retention_ts=RETENTIONS,
        out_block_bytes=st.sampled_from([64, 200, 1024, 4096]),
    )
    def test_merge_output(self, fixture, retention_ts, out_block_bytes):
        definition, hierarchy, runs = fixture
        synopsis = union_synopsis(definition, runs)
        where = (Zone.GROOMED, 1, 0, 9)  # zone, level, groomed-id range
        kernel_storage, oracle_storage = StorageHierarchy(), StorageHierarchy()
        kernel = RunBuilder(
            definition, kernel_storage, out_block_bytes
        ).build_from_columns(
            "out", merge_blocks(runs, retention_ts), synopsis, *where
        )
        oracle = reference_build_from_blobs(
            RunBuilder(definition, oracle_storage, out_block_bytes),
            "out", reference_merge_blobs(runs, retention_ts), synopsis, *where,
        )
        assert kernel.header == oracle.header
        # Header bytes first, then every data-block payload.
        assert shared_payloads(kernel_storage, "out") == shared_payloads(
            oracle_storage, "out"
        )
        assert len(shared_payloads(kernel_storage, "out")) == (
            1 + kernel.header.num_data_blocks
        )

    @settings(max_examples=150, deadline=None)
    @given(
        fixture=fixtures(),
        covered=st.sets(st.integers(1, MAX_TS)),
        share_splices=st.booleans(),
    )
    def test_streaming_evolve_output(self, fixture, covered, share_splices):
        definition, hierarchy, runs = fixture
        lists = {Zone.GROOMED: RunList("g"), Zone.POST_GROOMED: RunList("p")}
        for run in reversed(runs):
            lists[Zone.GROOMED].push_front(run)
        builder = RunBuilder(definition, hierarchy, data_block_bytes=160)
        controller = EvolveController(
            LEVELS, builder, hierarchy, RunIdAllocator("e"), lists, Watermark()
        )

        def new_rid_of(begin_ts):
            if begin_ts not in covered:
                return None
            return RID(Zone.POST_GROOMED, 100 + begin_ts // 3, begin_ts % 3)

        # The oracle first: the evolve's step 3 deletes the sources.
        run_id = RunIdAllocator("e").allocate(Zone.POST_GROOMED)
        decode = hierarchy.stats.decode
        before = decode.snapshot()
        counts = {"spliced": 0, "skipped": 0}
        oracle_storage = StorageHierarchy()
        oracle = reference_build_from_blobs(
            RunBuilder(definition, oracle_storage, data_block_bytes=160),
            run_id, reference_spliced_blobs(runs, new_rid_of, counts),
            union_synopsis(definition, runs), Zone.POST_GROOMED,
            LEVELS.first_post_groomed_level, 0, 5,
        )
        oracle_counters = {
            name: getattr(decode, name) - getattr(before, name) for name in COUNTERS
        }

        before = decode.snapshot()
        result = controller.evolve_streaming(
            1, RidSplices(new_rid_of) if share_splices else new_rid_of, 0, 5
        )
        assert oracle_counters == {
            name: getattr(decode, name) - getattr(before, name) for name in COUNTERS
        }
        assert (result.spliced_blobs, result.skipped_blobs) == (
            counts["spliced"], counts["skipped"],
        )
        (evolved,) = lists[Zone.POST_GROOMED].snapshot()
        assert evolved.header == oracle.header
        assert shared_payloads(hierarchy, run_id) == shared_payloads(
            oracle_storage, run_id
        )


# sha256 over every shared-storage block (namespace, ordinal, payload) after
# each tick of the fixed load below, and the decode ledger at its end,
# recorded on the parent commit (0393a71), where merge and evolve still
# moved one entry at a time through the heap and the per-entry builder.
# ``entry_decodes`` was 160 until the post-groom sweep read its
# predecessors' RIDs off the raw blobs instead of decoding each one.
GOLDEN_SHARED_BYTES = (
    "03b6d879cfb86c16b75e6f498f33f0bb1fdbd351d77ec5155f1621830cb98591"
)
GOLDEN_COUNTERS = {
    "entry_decodes": 0,
    "raw_key_probes": 5841,
    "blob_copies": 5280,
    "evolve_blob_splices": 1920,
    "maintenance_entry_decodes": 0,
}


def test_fixed_three_index_load_writes_the_parents_bytes():
    """Ten grooms, two post-grooms and evolves, merges in both zones."""
    schema = TableSchema(
        name="orders",
        columns=(
            ColumnSpec("order_id"),
            ColumnSpec("customer", ColumnType.STRING),
            ColumnSpec("region", ColumnType.STRING),
            ColumnSpec("amount"),
            ColumnSpec("weight", ColumnType.FLOAT64),
            ColumnSpec("tag", ColumnType.BYTES),
        ),
        primary_key=("order_id",),
        sharding_key=("order_id",),
    )
    shard = WildfireShard(
        schema,
        IndexSpec(equality_columns=("order_id",), included_columns=("weight",)),
        config=ShardConfig(
            post_groom_every=4,
            umzi=UmziConfig(levels=LEVELS, data_block_bytes=1024),
            secondary_indexes={
                "by_customer": IndexSpec(
                    equality_columns=("customer",),
                    included_columns=("amount", "tag"),
                ),
                "by_region": IndexSpec(
                    sort_columns=("region", "weight"),
                    included_columns=("amount",),
                ),
            },
        ),
    )
    digest = hashlib.sha256()
    reports = []
    for batch in range(10):
        shard.ingest([
            (
                (k * 7919) % 300 - 100,
                f"c{k % 37:03d}" + ("\x00" if k % 11 == 0 else ""),
                f"r{k % 5}",
                k * 31 - 2**40 * (k % 3),
                (k - 90) / 8 if k % 4 else -0.0,
                bytes([k % 256, 0, (k * 3) % 256]),
            )
            for k in range(batch * 50, batch * 50 + 80)
        ])
        reports.append(shard.tick())
        digest.update(shared_bytes_digest(shard.hierarchy).encode())
    assert sum("post_groom" in report for report in reports) == 2
    assert sum(len(report.get("merges", ())) for report in reports) == 4
    assert digest.hexdigest() == GOLDEN_SHARED_BYTES
    decode = shard.hierarchy.stats.decode
    assert {name: getattr(decode, name) for name in GOLDEN_COUNTERS} == (
        GOLDEN_COUNTERS
    )
