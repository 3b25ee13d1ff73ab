"""End-to-end shard tests: MVCC semantics, time travel, daemons, recovery."""

import random
import time

import pytest

from repro.core.definition import ColumnSpec
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.schema import IndexSpec, TableSchema


def make_shard(**config_overrides):
    schema = TableSchema(
        name="iot",
        columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
        primary_key=("device", "msg"),
        sharding_key=("device",),
        partition_key=("msg",),
    )
    spec = IndexSpec(("device",), ("msg",), ("reading",))
    return WildfireShard(schema, spec, config=ShardConfig(**config_overrides))


class TestUpsertSemantics:
    def test_last_writer_wins_across_grooms(self):
        shard = make_shard(post_groom_every=3)
        shard.ingest([(1, 1, 100)])
        shard.tick()
        shard.ingest([(1, 1, 200)])
        shard.tick()
        assert shard.point_query((1,), (1,)).values == (1, 1, 200)

    def test_distinct_keys_coexist(self):
        shard = make_shard()
        shard.ingest([(1, m, m) for m in range(5)])
        shard.tick()
        entries = shard.range_query((1,), (0,), (4,))
        assert len(entries) == 5

    def test_range_query_fetch_records(self):
        shard = make_shard()
        shard.ingest([(1, m, m * 10) for m in range(5)])
        shard.tick()
        records = shard.range_query((1,), (1,), (3,), fetch_records=True)
        assert [r.values[2] for r in records] == [10, 20, 30]

    def test_missing_key(self):
        shard = make_shard()
        shard.ingest([(1, 1, 1)])
        shard.tick()
        assert shard.point_query((9,), (9,)) is None


class TestSnapshotIsolation:
    def test_snapshot_repeatable_across_updates(self):
        shard = make_shard(post_groom_every=2)
        shard.ingest([(1, 1, 100)])
        shard.tick()
        ts = shard.current_snapshot_ts()
        shard.ingest([(1, 1, 200)])
        shard.run_cycles(4)
        assert shard.point_query((1,), (1,), query_ts=ts).values == (1, 1, 100)
        assert shard.point_query((1,), (1,)).values == (1, 1, 200)

    def test_version_chain_and_end_ts(self):
        shard = make_shard(post_groom_every=1)
        for value in (100, 200, 300):
            shard.ingest([(1, 1, value)])
            shard.run_cycles(2)
        versions = shard.time_travel((1,), (1,), shard.current_snapshot_ts())
        assert [v.values[2] for v in versions] == [300, 200, 100]
        assert versions[0].end_ts is None
        assert versions[1].end_ts == versions[0].begin_ts
        assert versions[2].end_ts == versions[1].begin_ts

    def test_batch_lookup(self):
        shard = make_shard()
        shard.ingest([(d, 1, d) for d in range(10)])
        shard.tick()
        keys = [((d,), (1,)) for d in range(10)]
        results = shard.index_batch_lookup(keys)
        assert all(r is not None for r in results)
        assert [r.include_values[0] for r in results] == list(range(10))


class TestDeterministicDriver:
    def test_run_cycles_with_ingest_fn(self):
        shard = make_shard(post_groom_every=2)
        rng = random.Random(1)

        def ingest(cycle):
            return [(rng.randrange(5), cycle * 10 + i, 0) for i in range(3)]

        reports = shard.run_cycles(6, ingest)
        assert len(reports) == 6
        assert shard.post_groomer.max_psn >= 2
        assert shard.index.indexed_psn == shard.post_groomer.max_psn

    def test_stats_snapshot(self):
        shard = make_shard()
        shard.ingest([(1, 1, 1)])
        shard.tick()
        stats = shard.stats()
        assert stats["cycle"] == 1
        assert stats["live_rows"] == 0  # drained by groom
        assert stats["index"].total_entries == 1


class TestThreadedDaemons:
    def test_daemons_process_ingest(self):
        shard = make_shard(post_groom_every=2)
        shard.start_daemons(groom_interval_s=0.005)
        try:
            for batch in range(10):
                shard.ingest([(batch % 3, batch, batch)])
                time.sleep(0.01)
            deadline = time.time() + 5
            while shard.committed_log.pending_rows() and time.time() < deadline:
                time.sleep(0.01)
            time.sleep(0.1)
        finally:
            shard.stop_daemons()
        assert shard.groomer.grooms_done > 0
        assert shard.point_query((0,), (0,)) is not None


class TestCrashRecovery:
    def test_engine_level_recovery(self):
        shard = make_shard(post_groom_every=2)
        shard.ingest([(d, 1, d * 10) for d in range(8)])
        shard.run_cycles(4)
        expected = {d: shard.point_query((d,), (1,)).values for d in range(8)}
        shard.crash_and_recover()
        for d in range(8):
            assert shard.point_query((d,), (1,)).values == expected[d]
