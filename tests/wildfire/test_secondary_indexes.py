"""Tests for secondary index support (the paper's section 10 future work).

Secondary indexes ride the same lifecycle as the primary: one run per
groom, one evolve per post-groom, lockstep PSN progress, shared recovery.
"""

import pytest

from repro.core.definition import ColumnSpec
from repro.core.entry import Zone
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.indexes import PRIMARY_INDEX_NAME
from repro.wildfire.schema import IndexSpec, SchemaError, TableSchema


def make_shard(post_groom_every=3):
    schema = TableSchema(
        name="orders",
        columns=(
            ColumnSpec("order_id"),
            ColumnSpec("customer"),
            ColumnSpec("amount"),
        ),
        primary_key=("order_id",),
        sharding_key=("order_id",),
        partition_key=("customer",),
    )
    primary = IndexSpec(equality_columns=("order_id",), included_columns=("amount",))
    config = ShardConfig(
        post_groom_every=post_groom_every,
        secondary_indexes={
            "by_customer": IndexSpec(
                equality_columns=("customer",), included_columns=("amount",)
            ),
        },
    )
    return WildfireShard(schema, primary, config=config)


class TestLifecycle:
    def test_groom_builds_runs_for_all_indexes(self):
        shard = make_shard()
        shard.ingest([(1, 100, 50), (2, 100, 75)])
        result = shard.groomer.groom()
        names = dict(result.index_run_ids)
        assert set(names) == {"primary", "by_customer"}
        assert len(shard.indexes.get("by_customer").index.run_lists[Zone.GROOMED]) == 1

    def test_psn_progress_in_lockstep(self):
        shard = make_shard(post_groom_every=1)
        shard.ingest([(1, 100, 50)])
        shard.tick()
        assert shard.index.indexed_psn == 1
        assert shard.indexes.get("by_customer").index.indexed_psn == 1
        assert shard.indexes.min_indexed_psn() == 1

    def test_secondary_key_suffix_applied(self):
        shard = make_shard()
        spec = shard.indexes.get("by_customer").spec
        # order_id (the primary key) was appended to the sort columns.
        assert "order_id" in spec.sort_columns


class TestQueries:
    def test_lookup_by_secondary_value_returns_all_rows(self):
        shard = make_shard(post_groom_every=1)
        shard.ingest([(1, 100, 50), (2, 100, 75), (3, 200, 10)])
        shard.run_cycles(2)
        hits = shard.secondary_lookup("by_customer", (100,))
        assert len(hits) == 2
        assert {h.include_values[0] for h in hits} == {50, 75}

    def test_secondary_sees_newest_version_only(self):
        shard = make_shard(post_groom_every=1)
        shard.ingest([(1, 100, 50)])
        shard.run_cycles(2)
        shard.ingest([(1, 100, 99)])  # update order 1's amount
        shard.run_cycles(2)
        hits = shard.secondary_lookup("by_customer", (100,))
        assert [h.include_values[0] for h in hits] == [99]

    def test_secondary_time_travel(self):
        shard = make_shard(post_groom_every=1)
        shard.ingest([(1, 100, 50)])
        shard.run_cycles(2)
        old_ts = shard.current_snapshot_ts()
        shard.ingest([(1, 100, 99)])
        shard.run_cycles(2)
        old = shard.secondary_lookup("by_customer", (100,), query_ts=old_ts)
        new = shard.secondary_lookup("by_customer", (100,))
        assert [h.include_values[0] for h in old] == [50]
        assert [h.include_values[0] for h in new] == [99]

    def test_secondary_rids_evolve(self):
        shard = make_shard(post_groom_every=1)
        shard.ingest([(1, 100, 50)])
        shard.run_cycles(2)
        hits = shard.secondary_lookup("by_customer", (100,))
        assert hits[0].rid.zone is Zone.POST_GROOMED

    def test_fetch_records_through_secondary(self):
        shard = make_shard(post_groom_every=1)
        shard.ingest([(7, 300, 42)])
        shard.run_cycles(2)
        records = [
            shard.catalog.fetch_record(entry.rid)
            for entry in shard.secondary_scan("by_customer", (300,))
        ]
        assert records[0].values == (7, 300, 42)

    def test_miss_returns_empty(self):
        shard = make_shard()
        shard.ingest([(1, 100, 50)])
        shard.tick()
        assert shard.secondary_lookup("by_customer", (999,)) == []

    def test_unknown_index_rejected(self):
        shard = make_shard()
        with pytest.raises(KeyError):
            shard.secondary_lookup("nope", (1,))


class TestRecovery:
    def test_crash_recovers_all_indexes(self):
        shard = make_shard(post_groom_every=2)
        shard.ingest([(i, 100 + i % 2, i * 10) for i in range(10)])
        shard.run_cycles(4)
        before = {
            c: sorted(h.include_values[0]
                      for h in shard.secondary_lookup("by_customer", (c,)))
            for c in (100, 101)
        }
        shard.crash_and_recover()
        after = {
            c: sorted(h.include_values[0]
                      for h in shard.secondary_lookup("by_customer", (c,)))
            for c in (100, 101)
        }
        assert before == after


class TestRegistration:
    def test_duplicate_name_rejected(self):
        shard = make_shard()
        with pytest.raises(SchemaError):
            shard.indexes.add_secondary(
                "by_customer",
                IndexSpec(equality_columns=("customer",)),
                shard.hierarchy,
                shard.config.umzi,
            )

    def test_primary_name_reserved(self):
        shard = make_shard()
        with pytest.raises(SchemaError):
            shard.indexes.add_secondary(
                PRIMARY_INDEX_NAME,
                IndexSpec(equality_columns=("customer",)),
                shard.hierarchy,
                shard.config.umzi,
            )

    def test_index_names(self):
        shard = make_shard()
        assert shard.indexes.names() == ["primary", "by_customer"]
