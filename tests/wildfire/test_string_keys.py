"""End-to-end test with string key columns.

Exercises the variable-length (escape/terminator) encodings through the
entire stack: columnar blocks, run serialization, synopses, offset arrays,
merges, evolve, and recovery.
"""

import pytest

from repro.core.definition import ColumnSpec, ColumnType
from repro.core.entry import Zone
from repro.planner import Query
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.schema import IndexSpec, TableSchema

DEVICES = ["sensor/alpha", "sensor/β-unicode", "sensor\x00null", "s"]


def make_shard():
    schema = TableSchema(
        name="strkeys",
        columns=(
            ColumnSpec("device", ColumnType.STRING),
            ColumnSpec("msg"),
            ColumnSpec("payload", ColumnType.BYTES),
        ),
        primary_key=("device", "msg"),
        sharding_key=("device",),
        partition_key=("msg",),
    )
    spec = IndexSpec(("device",), ("msg",), ("payload",))
    return WildfireShard(schema, spec, config=ShardConfig(post_groom_every=2))


class TestStringKeysEndToEnd:
    def test_ingest_and_point_query(self):
        shard = make_shard()
        rows = [(d, m, f"{d}:{m}".encode()) for d in DEVICES for m in range(5)]
        shard.ingest(rows)
        shard.tick()
        for d in DEVICES:
            record = shard.point_query((d,), (3,))
            assert record.values[2] == f"{d}:3".encode()

    def test_range_scan_per_device(self):
        shard = make_shard()
        shard.ingest([(d, m, b"x") for d in DEVICES for m in range(10)])
        shard.tick()
        for d in DEVICES:
            rows = shard.query(Query(
                equalities=(("device", d),), ranges=(("msg", 2, 6),),
            ))
            assert [row[1] for row in rows] == [2, 3, 4, 5, 6]
            assert all(row[0] == d for row in rows)

    def test_evolve_and_merge_with_string_keys(self):
        shard = make_shard()
        for batch in range(6):
            shard.ingest([(d, batch * 10 + i, b"v") for d in DEVICES for i in range(3)])
            shard.tick()
        assert shard.index.indexed_psn >= 1
        record = shard.point_query((DEVICES[1],), (31,))
        assert record is not None

    def test_updates_last_writer_wins(self):
        shard = make_shard()
        shard.ingest([("sensor/alpha", 1, b"old")])
        shard.run_cycles(2)
        shard.ingest([("sensor/alpha", 1, b"new")])
        shard.run_cycles(2)
        assert shard.point_query(("sensor/alpha",), (1,)).values[2] == b"new"

    def test_crash_recovery_with_string_keys(self):
        shard = make_shard()
        shard.ingest([(d, m, d.encode()) for d in DEVICES for m in range(4)])
        shard.run_cycles(4)
        shard.crash_and_recover()
        for d in DEVICES:
            assert shard.point_query((d,), (2,)).values[2] == d.encode()

    def test_embedded_nulls_survive_everything(self):
        shard = make_shard()
        tricky = "a\x00b\x00\x00c"
        shard.ingest([(tricky, 1, b"\x00\xff\x00")])
        shard.run_cycles(4)
        record = shard.point_query((tricky,), (1,))
        assert record.values == (tricky, 1, b"\x00\xff\x00")
