"""Tests for secondary index support (the paper's section 10 future work).

Secondary indexes ride the same lifecycle as the primary: one run per
groom, one evolve per post-groom, lockstep PSN progress, shared recovery.
"""

import math
import random

import pytest

from repro.core.definition import ColumnSpec
from repro.core.entry import Zone
from repro.planner import PlanError, Query
from repro.wildfire.clock import decompose_begin_ts
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.indexes import PRIMARY_INDEX_NAME
from repro.wildfire.schema import IndexSpec, SchemaError, TableSchema


def orders(post_groom_every=3):
    """The orders table's schema, primary index and shard config."""
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
    return schema, primary, config


def make_shard(post_groom_every=3):
    schema, primary, config = orders(post_groom_every)
    return WildfireShard(schema, primary, config=config)


def by_customer(customer, projection=None, query_ts=None):
    return Query(equalities=(("customer", customer),), projection=projection,
                 query_ts=query_ts)


COVERED = ("order_id", "amount")


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
        assert shard.query(by_customer(100, COVERED)) == [(1, 50), (2, 75)]

    def test_secondary_sees_newest_version_only(self):
        shard = make_shard(post_groom_every=1)
        shard.ingest([(1, 100, 50)])
        shard.run_cycles(2)
        shard.ingest([(1, 100, 99)])  # update order 1's amount
        shard.run_cycles(2)
        assert shard.query(by_customer(100, COVERED)) == [(1, 99)]

    def test_secondary_time_travel(self):
        shard = make_shard(post_groom_every=1)
        shard.ingest([(1, 100, 50)])
        shard.run_cycles(2)
        old_ts = shard.current_snapshot_ts()
        shard.ingest([(1, 100, 99)])
        shard.run_cycles(2)
        assert shard.query(by_customer(100, COVERED, old_ts)) == [(1, 50)]
        assert shard.query(by_customer(100, COVERED)) == [(1, 99)]

    def test_secondary_rids_evolve(self):
        shard = make_shard(post_groom_every=1)
        shard.ingest([(1, 100, 50)])
        shard.run_cycles(2)
        (hit,) = shard.indexes.get("by_customer").index.scan((100,))
        assert hit.rid.zone is Zone.POST_GROOMED

    def test_fetch_records_through_secondary(self):
        shard = make_shard(post_groom_every=1)
        shard.ingest([(7, 300, 42)])
        shard.run_cycles(2)
        assert shard.query(by_customer(300)) == [(7, 300, 42)]

    def test_miss_returns_empty(self):
        shard = make_shard()
        shard.ingest([(1, 100, 50)])
        shard.tick()
        assert shard.query(by_customer(999)) == []

    def test_unknown_index_rejected(self):
        shard = make_shard()
        with pytest.raises(PlanError, match="unknown index 'nope'"):
            shard.query(Query(equalities=(("customer", 1),), index_hint="nope"))


class TestRecovery:
    def test_crash_recovers_all_indexes(self):
        shard = make_shard(post_groom_every=2)
        shard.ingest([(i, 100 + i % 2, i * 10) for i in range(10)])
        shard.run_cycles(4)
        before = {c: shard.query(by_customer(c, COVERED)) for c in (100, 101)}
        shard.crash_and_recover()
        after = {c: shard.query(by_customer(c, COVERED)) for c in (100, 101)}
        assert before == after


KEYS, CUSTOMERS, ROUNDS = 12, 3, 6


def shard_doors():
    """Every public door of a shard that reads a secondary, each as
    ``door(shard, customer, projection, query_ts) -> rows``.  A raw door,
    should a shard have one, must answer as the typed query does."""
    doors = [lambda shard, c, projection, ts:
             shard.query(by_customer(c, projection, ts))]
    if hasattr(WildfireShard, "secondary_lookup"):
        def raw_door(shard, c, projection, ts):
            hits = shard.secondary_lookup("by_customer", (c,), query_ts=ts)
            if projection is None:
                return [shard.catalog.fetch_record(h.rid).values for h in hits]
            return [(h.sort_values[0], h.include_values[0]) for h in hits]
        doors.append(raw_door)
    return doors


def visible_at(versions, ts):
    """The model: each order's newest version groomed at or before ``ts``
    (``None``: the latest)."""
    cycle = math.inf if ts is None else decompose_begin_ts(ts)[0]
    rows = []
    for history in versions.values():
        seen = [row for groomed, row in history if groomed <= cycle]
        rows.extend(seen[-1:])
    return rows


class TestMovesAcrossEveryDoor:
    """Seeded rounds of upserts move orders between customers and back (or
    change only their amount), with grooms, post-grooms and evolves between
    rounds.  After every round, every public door that reads the secondary
    -- the table's, and each shard's over its own orders -- answers every
    customer, full row and the index-only projection, at the latest
    snapshot and AS-OF every earlier one, exactly as a dict of versions
    does."""

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_every_door_follows_moves(self, num_shards):
        schema, primary, config = orders(post_groom_every=2)
        table = ShardedTable(schema, primary, num_shards=num_shards, config=config)
        rng = random.Random(45 + num_shards)
        versions = {}  # order_id -> [(groom cycle, row)], oldest first
        snapshots = []
        for round_ in range(ROUNDS):
            keys = range(KEYS) if round_ == 0 else rng.sample(range(KEYS), KEYS // 2)
            rows = [(k, rng.randrange(CUSTOMERS), 100 * round_ + k) for k in keys]
            table.ingest(rows)
            table.run_cycles(2)
            for row in rows:
                clock = table.shards[table.shard_of_row(row)].clock
                versions.setdefault(row[0], []).append((clock.groom_cycle, row))
            for ts in (None, *snapshots):
                visible = visible_at(versions, ts)
                for c in range(CUSTOMERS):
                    full = sorted(row for row in visible if row[1] == c)
                    for projection, want in ((None, full),
                                             (COVERED, [(r[0], r[2]) for r in full])):
                        where = (round_, ts, c, projection)
                        assert table.query(by_customer(c, projection, ts)) == want, where
                        for door in shard_doors():
                            got = sorted(
                                row for shard in table.shards
                                for row in door(shard, c, projection, ts)
                            )
                            assert got == want, (door, *where)
            snapshots.append(max(shard.clock.snapshot_ts for shard in table.shards))


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
