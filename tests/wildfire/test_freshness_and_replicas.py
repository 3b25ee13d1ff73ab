"""The live zone is never read, and interleaved commits groom in commit
order."""

from repro.core.definition import ColumnSpec
from repro.planner import Query
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.schema import IndexSpec, TableSchema


def make_shard():
    schema = TableSchema(
        name="iot",
        columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
        primary_key=("device", "msg"),
        sharding_key=("device",),
        partition_key=("msg",),
    )
    return WildfireShard(
        schema, IndexSpec(("device",), ("msg",), ("reading",)),
        config=ShardConfig(post_groom_every=3),
    )


class TestLiveZoneIsNotRead:
    def test_an_ungroomed_write_is_read_once_groomed(self):
        """Reads are served at the groomed snapshot: a committed write
        still in the live zone is invisible until a groom publishes it."""
        shard = make_shard()
        shard.ingest([(1, 1, 100)])
        assert shard.point_query((1,), (1,)) is None
        shard.tick()
        shard.ingest([(1, 1, 999)])
        assert shard.point_query((1,), (1,)).values == (1, 1, 100)
        shard.tick()
        assert shard.point_query((1,), (1,)).values == (1, 1, 999)


class TestMultiReplicaCommits:
    def test_groomer_merges_replicas_in_commit_order(self):
        """Open transactions share the shard clock, so commit sequences
        interleave; the groomer must merge them in time order and
        last-writer-wins must hold across them (paper section 2.1)."""
        shard = make_shard()
        tx_a = shard.begin()
        tx_a.upsert((1, 1, 100))
        tx_b = shard.begin()
        tx_b.upsert((1, 1, 200))
        tx_a.commit()  # commit_seq 1
        tx_b.commit()  # commit_seq 2 -- the later writer
        shard.tick()
        assert shard.point_query((1,), (1,)).values == (1, 1, 200)

    def test_interleaved_replicas_distinct_keys(self):
        shard = make_shard()
        shard.ingest([(1, m, m) for m in range(3)])
        shard.ingest([(2, m, m) for m in range(3)])
        shard.tick()
        for device in (1, 2):
            assert len(shard.query(Query(
                equalities=(("device", device),), ranges=(("msg", 0, 9),),
            ))) == 3

    def test_begin_ts_monotone_across_replicas(self):
        shard = make_shard()
        shard.ingest([(1, 1, 0)])
        shard.tick()
        shard.ingest([(1, 2, 0)])
        shard.tick()
        first = shard.index_lookup((1,), (1,))
        second = shard.index_lookup((1,), (2,))
        assert second.begin_ts > first.begin_ts
