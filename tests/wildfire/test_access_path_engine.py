"""Shard-level access-path execution tests (ISSUE 9).

Covers the read-attribution counters the A15 bench asserts on (an
index-only plan touches no primary-index blocks and no record blocks),
the batched RID fetch path, wrapper/typed-query equivalence, and
secondary queries under live daemons plus a crash seed.
"""

import time

import pytest

from repro.core.definition import ColumnSpec, ColumnType
from repro.faults.crash import CrashSchedule, install_crash_schedule
from repro.faults.errors import SimulatedCrash
from repro.planner import Query
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.schema import IndexSpec, TableSchema


def make_shard(planner="smart", post_groom_every=3):
    schema = TableSchema(
        name="orders",
        columns=(
            ColumnSpec("order_id"),
            ColumnSpec("customer", ColumnType.STRING),
            ColumnSpec("region", ColumnType.STRING),
            ColumnSpec("amount"),
        ),
        primary_key=("order_id",),
        sharding_key=("order_id",),
    )
    primary = IndexSpec(sort_columns=("order_id",))
    config = ShardConfig(
        planner=planner,
        post_groom_every=post_groom_every,
        secondary_indexes={
            "by_customer": IndexSpec(
                equality_columns=("customer",), included_columns=("amount",)
            ),
            "by_region": IndexSpec(
                sort_columns=("region",), included_columns=("amount",)
            ),
        },
    )
    return WildfireShard(schema, primary, config=config)


def seed(shard, n=60):
    shard.ingest([
        (i, f"c{i % 5}", f"r{i % 3}", i * 10) for i in range(n)
    ])
    shard.run_cycles(4)


def cold_reset(shard):
    """Drop every warm copy so the next query pays real block reads."""
    for shard_index in shard.indexes.all():
        for run in shard_index.index.visible_runs():
            run.drop_decode_cache()
    shard.hierarchy.crash_local_tiers()
    shard.catalog.forget_decoded()


class TestReadAttribution:
    def test_index_only_touches_no_primary_and_no_records(self):
        shard = make_shard()
        seed(shard)
        cold_reset(shard)
        rows = shard.query(Query(
            equalities=(("customer", "c2"),),
            projection=("order_id", "amount"),
        ))
        assert rows == [(i, i * 10) for i in range(60) if i % 5 == 2]
        snap = shard.hierarchy.stats.attribution_snapshot()
        assert snap.get("index:by_customer", 0) > 0
        assert snap.get("index:primary", 0) == 0
        assert snap.get("records", 0) == 0

    def test_fetch_back_charges_all_three_components(self):
        # Order 7 moves from c2 to c3: read AS-OF before the move, its c2
        # entry is a ghosted winner older than its key's newest version,
        # which the primary resolves.
        shard = make_shard()
        seed(shard)
        before_move = shard.current_snapshot_ts()
        shard.ingest([(7, "c3", "r1", 70)])
        shard.run_cycles(2)
        cold_reset(shard)
        rows = shard.query(Query(
            equalities=(("customer", "c2"),), query_ts=before_move,
        ))
        assert len(rows) == 12 and (7, "c2", "r1", 70) in rows
        snap = shard.hierarchy.stats.attribution_snapshot()
        assert snap.get("index:by_customer", 0) > 0
        assert snap.get("index:primary", 0) > 0
        assert snap.get("records", 0) > 0

    def test_clean_fetch_back_reads_no_primary(self):
        # No key ever moved: every hit is already its row's newest
        # version, so the fetch-back never touches the primary.
        shard = make_shard()
        seed(shard)
        cold_reset(shard)
        rows = shard.query(Query(equalities=(("customer", "c2"),)))
        assert len(rows) == 12
        snap = shard.hierarchy.stats.attribution_snapshot()
        assert snap.get("index:by_customer", 0) > 0
        assert snap.get("index:primary", 0) == 0
        assert snap.get("records", 0) > 0

    def test_attribution_only_charged_inside_scopes(self):
        shard = make_shard()
        seed(shard)
        cold_reset(shard)
        # The point wrapper and the index API run outside any scope.
        shard.point_query(sort_values=(7,))
        shard.index.scan(sort_lower=(0,), sort_upper=(59,))
        assert shard.hierarchy.stats.attribution_snapshot() == {}


class TestBatchRecordFetch:
    def test_fetch_records_matches_singles_and_batches_block_reads(self):
        shard = make_shard()
        seed(shard)
        entries = shard.index.scan(sort_lower=(0,), sort_upper=(59,))
        rids = [e.rid for e in entries]
        singles = [shard.catalog.fetch_record(rid) for rid in rids]
        assert shard.catalog.fetch_records(rids) == [
            (record.values, record.begin_ts) for record in singles
        ]
        distinct_blocks = {(rid.zone, rid.block_id) for rid in rids}
        cold_reset(shard)
        assert shard.hierarchy.attribute_reads("records") is None
        shard.catalog.fetch_records(rids)
        assert shard.hierarchy.attribute_reads(None) == "records"
        assert (
            shard.hierarchy.stats.attribution_snapshot()["records"]
            == len(distinct_blocks)
        )


class TestWrapperEquivalence:
    def test_wrappers_agree_with_typed_queries(self):
        shard = make_shard()
        seed(shard)
        record = shard.point_query(sort_values=(7,))
        assert [record.values] == shard.query(
            Query(equalities=(("order_id", 7),))
        )
        entries = shard.index.scan(sort_lower=(10,), sort_upper=(20,))
        assert [e.sort_values[0] for e in entries] == [
            row[0] for row in shard.query(
                Query(ranges=(("order_id", 10, 20),)),
            )
        ]

    def test_wrapper_arity_errors_unchanged(self):
        shard = make_shard()
        seed(shard)
        with pytest.raises(Exception):
            shard.index_lookup(equality_values=(1, 2), sort_values=(3,))


class TestSecondaryUnderLiveDaemons:
    def test_secondary_queries_while_daemons_run(self):
        shard = make_shard(post_groom_every=2)
        shard.start_daemons(groom_interval_s=0.01)
        try:
            for batch in range(6):
                shard.ingest([
                    (batch * 10 + i, f"c{i % 3}", f"r{i % 2}",
                     batch * 100 + i)
                    for i in range(10)
                ])
                # Queries race the groomer/indexer/post-groomer freely;
                # they must never error and never see torn state.
                shard.query(Query(equalities=(("customer", "c1"),)))
                shard.query(Query(equalities=(("customer", "c0"),),
                                  projection=("order_id", "amount")))
                time.sleep(0.01)
        finally:
            shard.stop_daemons()
        shard.quiesce()
        rows = shard.query(Query(equalities=(("customer", "c1"),),
                                 projection=("order_id",)))
        assert rows == [
            (batch * 10 + i,) for batch in range(6) for i in range(10)
            if i % 3 == 1
        ]

    def test_typed_queries_survive_a_daemon_crash(self):
        shard = make_shard(post_groom_every=2)
        schedule = CrashSchedule({"indexer.pre_evolve": {2}})
        crashes = 0
        with install_crash_schedule(schedule):
            for cycle in range(6):
                shard.ingest([
                    (cycle * 10 + i, f"c{i % 3}", "r0", cycle)
                    for i in range(10)
                ])
                while True:
                    try:
                        shard.tick()
                        break
                    except SimulatedCrash:
                        crashes += 1
                        shard.crash_and_recover()
            while True:
                try:
                    shard.run_cycles(3)
                    break
                except SimulatedCrash:
                    crashes += 1
                    shard.crash_and_recover()
        assert crashes == 1, "the crash schedule never fired"
        rows = shard.query(Query(
            equalities=(("customer", "c1"),),
            projection=("order_id", "amount"),
        ))
        expected = sorted(
            (cycle * 10 + i, cycle)
            for cycle in range(6) for i in range(10) if i % 3 == 1
        )
        assert rows == expected
        # And the recovered shard still agrees with the baseline planner.
        baseline = make_shard(planner="baseline", post_groom_every=2)
        for cycle in range(6):
            baseline.ingest([
                (cycle * 10 + i, f"c{i % 3}", "r0", cycle)
                for i in range(10)
            ])
            baseline.tick()
        baseline.run_cycles(3)
        query = Query(equalities=(("customer", "c1"),))
        assert shard.query(query) == baseline.query(query)
