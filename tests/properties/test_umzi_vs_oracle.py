"""Whole-system property test: Umzi vs a brute-force oracle.

Hypothesis drives a random interleaving of ingests (with key reuse =
updates), grooms, post-grooms, evolves, and merges through the full
Wildfire shard, then checks that every point lookup and range scan -- at
the current snapshot *and* at historical snapshots -- matches a
:class:`SortedArrayIndex` oracle fed with the same logical writes.

RIDs legitimately differ between Umzi and the oracle (they change as data
evolves across zones), so answers are compared as
``(key, beginTS, included columns)``.
"""

from typing import Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.baselines.btree import SortedArrayIndex
from repro.core.definition import ColumnSpec
from repro.core.entry import IndexEntry, RID, Zone
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.schema import IndexSpec, TableSchema

DEVICES = 6
MESSAGES = 4


def make_shard(post_groom_every: int) -> WildfireShard:
    schema = TableSchema(
        name="prop",
        columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
        primary_key=("device", "msg"),
        sharding_key=("device",),
        partition_key=("msg",),
    )
    spec = IndexSpec(("device",), ("msg",), ("reading",))
    return WildfireShard(
        schema, spec, config=ShardConfig(post_groom_every=post_groom_every,
                                         partition_buckets=2),
    )


# One step = a batch of (device, msg, reading) upserts followed by a tick.
write_batches = st.lists(
    st.lists(
        st.tuples(
            st.integers(0, DEVICES - 1),
            st.integers(0, MESSAGES - 1),
            st.integers(0, 1000),
        ),
        min_size=0, max_size=6,
    ),
    min_size=1, max_size=12,
)


def answer_set(entries: List[IndexEntry]):
    return {
        (e.equality_values, e.sort_values, e.begin_ts, e.include_values)
        for e in entries
    }


@settings(max_examples=20, deadline=None)
@given(batches=write_batches, post_groom_every=st.integers(1, 4))
def test_full_lifecycle_matches_oracle(batches, post_groom_every):
    shard = make_shard(post_groom_every)
    definition = shard.index.definition
    oracle = SortedArrayIndex(definition)
    snapshots: List[int] = []

    for batch in batches:
        if batch:
            shard.ingest(batch)
        report = shard.tick()
        groom = report.get("groom")
        if groom is not None:
            # Mirror exactly what the groomer indexed into the oracle
            # (beginTS values are assigned by the groomer, so read them
            # back from the newly groomed block).
            block = shard.catalog.get_block(Zone.GROOMED, groom.groomed_block_id)
            for (device, msg, reading), begin_ts in zip(block.rows, block.begin_ts):
                oracle.insert(
                    IndexEntry.create(
                        definition, (device,), (msg,), (reading,),
                        begin_ts, RID(Zone.GROOMED, 0, 0),
                    )
                )
        snapshots.append(shard.current_snapshot_ts())

    # Point lookups at every historical snapshot.
    for ts in snapshots:
        for device in range(DEVICES):
            for msg in range(MESSAGES):
                got = shard.index_lookup((device,), (msg,), query_ts=ts)
                probe = IndexEntry.create(
                    definition, (device,), (msg,), (0,), 1, RID(Zone.GROOMED, 0, 0)
                )
                want = oracle.lookup(probe.key_bytes(definition), ts)
                if want is None:
                    assert got is None, (device, msg, ts)
                else:
                    assert got is not None, (device, msg, ts)
                    assert got.begin_ts == want.begin_ts
                    assert got.include_values == want.include_values

    # Range scans per device at the final snapshot.
    final_ts = snapshots[-1]
    for device in range(DEVICES):
        got = shard.index.scan((device,), (0,), (MESSAGES - 1,), final_ts)
        probe = IndexEntry.create(
            definition, (device,), (0,), (0,), 1, RID(Zone.GROOMED, 0, 0)
        )
        prefix = probe.key_bytes(definition)[:-8]  # strip the sort column
        from repro.core.encoding import prefix_successor

        want = oracle.scan(prefix, prefix_successor(prefix), final_ts)
        assert answer_set(got) == answer_set(want), f"device {device}"


@settings(max_examples=10, deadline=None)
@given(batches=write_batches)
def test_crash_recovery_preserves_oracle_equivalence(batches):
    shard = make_shard(post_groom_every=2)
    definition = shard.index.definition
    expected: Dict[Tuple[int, int], Tuple[int, int]] = {}

    for batch in batches:
        if batch:
            shard.ingest(batch)
        report = shard.tick()
        groom = report.get("groom")
        if groom is not None:
            block = shard.catalog.get_block(Zone.GROOMED, groom.groomed_block_id)
            for (device, msg, reading), begin_ts in zip(block.rows, block.begin_ts):
                expected[(device, msg)] = (begin_ts, reading)

    shard.crash_and_recover()
    for (device, msg), (begin_ts, reading) in expected.items():
        got = shard.index_lookup((device,), (msg,))
        assert got is not None
        assert got.begin_ts == begin_ts
        assert got.include_values == (reading,)
    # Keys never written stay absent.
    assert shard.index_lookup((DEVICES,), (0,)) is None
