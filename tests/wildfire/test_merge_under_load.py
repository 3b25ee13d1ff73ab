"""Online shard merge under live daemons and concurrent queries (ISSUE 10).

Mirror of ``tests/wildfire/test_split_under_load.py`` with the
reorganization reversed: the cluster splits its hottest shard first
(quietly), then -- with every shard's groom/post-groom/index daemons on
real threads, query threads hammering warm keys, and an ingest thread
appending fresh rows -- the two successors are merged back online.  The
invariants are the split's:

* no query thread ever sees an error or a wrong/missing answer for a
  warm key -- the merging double-read window and both epoch publishes
  are invisible to clients;
* no shard's run lifecycle ever reclaims a version while pinned, and
  neither does the routing-map registry;
* the registry still costs **exactly two refcount operations per
  query**, before the split, between split and merge, and after the
  merge.
"""

import threading

import pytest

from repro.core.definition import ColumnSpec
from repro.planner import Query
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import ShardConfig
from repro.wildfire.schema import IndexSpec, TableSchema

from tests.conftest import assert_lifecycles_quiescent

pytestmark = pytest.mark.timeout(180)

DEVICES = 24
MSGS = 3
QUERY_THREADS = 4
INGEST_ROUNDS = 12


def make_table(num_shards=2):
    schema = TableSchema(
        name="iot",
        columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
        primary_key=("device", "msg"),
        sharding_key=("device",),
        partition_key=("msg",),
    )
    return ShardedTable(
        schema,
        IndexSpec(("device",), ("msg",), ("reading",)),
        num_shards=num_shards,
        config=ShardConfig(post_groom_every=2),
    )


def expected(device, msg):
    return device * 100 + msg


class TestMergeUnderLoad:
    def test_merge_with_live_daemons_and_queries(self):
        table = make_table(num_shards=2)
        table.ingest(
            [(d, m, expected(d, m)) for d in range(DEVICES) for m in range(MSGS)]
        )
        table.run_cycles(4)
        victim = table.shard_of_key((0,))
        summary = table.split_shard(victim)
        assert summary["phase"] == "done"
        left, right = summary["successors"]
        table.run_cycles(4)

        table.start_daemons(groom_interval_s=0.002)
        stop = threading.Event()
        errors = []

        def query_loop(tid):
            i = 0
            while not stop.is_set():
                device = (tid + i) % DEVICES
                msg = i % MSGS
                try:
                    record = table.point_query((device,), (msg,))
                    if record is None or record.values != (
                        device, msg, expected(device, msg),
                    ):
                        errors.append((tid, device, msg, record))
                        return
                    rows = table.query(Query(equalities=(("device", device),)))
                    if len(rows) < MSGS:
                        errors.append((tid, device, "range", len(rows)))
                        return
                except Exception as exc:  # noqa: BLE001 - the assertion
                    errors.append((tid, device, msg, repr(exc)))
                    return
                i += 1

        def ingest_loop():
            for round_no in range(INGEST_ROUNDS):
                if stop.is_set():
                    return
                table.ingest(
                    [(d, 100 + round_no, d) for d in range(DEVICES)]
                )

        threads = [
            threading.Thread(target=query_loop, args=(tid,), daemon=True)
            for tid in range(QUERY_THREADS)
        ]
        threads.append(threading.Thread(target=ingest_loop, daemon=True))
        for thread in threads:
            thread.start()
        try:
            summary = table.merge_shards(left, right)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
            table.stop_daemons()

        assert errors == []
        assert summary["phase"] == "done"
        assert table.routing_epoch() == 4
        assert sorted(table.stats()["retired_shards"]) == sorted(
            [victim, left, right]
        )
        assert len(table.live_shard_ids()) == 2

        # Every map pin of the storm was released, and no shard's run
        # lifecycle still parks a retired run.
        maps = table.epoch_stats()
        assert maps.version_refs == maps.version_unrefs
        assert_lifecycles_quiescent(table)

        # Everything written during the window drains and answers.
        table.run_cycles(6)
        for d in range(DEVICES):
            for m in range(MSGS):
                assert table.point_query((d,), (m,)).values == (
                    d, m, expected(d, m),
                )
            for round_no in range(INGEST_ROUNDS):
                record = table.point_query((d,), (100 + round_no,))
                assert record is not None and record.values == (
                    d, 100 + round_no, d,
                )

    def test_exactly_two_refcount_ops_per_query(self):
        """The ledger-observable epoch cost, before, between, and after."""
        table = make_table(num_shards=2)
        table.ingest(
            [(d, m, expected(d, m)) for d in range(DEVICES) for m in range(MSGS)]
        )
        table.run_cycles(4)

        def probe(queries):
            before = table.epoch_stats().snapshot()
            for i in range(queries // 2):
                device = i % DEVICES
                assert table.point_query((device,), (0,)) is not None
                assert len(table.query(
                    Query(equalities=(("device", device),))
                )) >= MSGS
            delta = table.epoch_stats().diff(before)
            assert delta.version_refs == queries
            assert delta.version_unrefs == queries
            assert delta.pins_entered == queries
            assert delta.pins_exited == queries
            assert delta.versions_published == 0

        probe(40)
        summary = table.split_shard(table.shard_of_key((0,)))
        probe(40)
        table.merge_shards(*summary["successors"])
        probe(40)

        # Across the whole round trip the registry stayed balanced, and
        # the four publishes reclaimed every superseded epoch.
        stats = table.epoch_stats()
        assert stats.pins_entered == stats.pins_exited
        assert stats.versions_published == 5  # initial + 2 cutovers + 2 finals
        assert stats.versions_reclaimed == 4
