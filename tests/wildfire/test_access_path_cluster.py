"""Cluster-level typed queries, secondary-index splits, scatter pruning.

``ShardedTable.query`` routes on the sharding key when the query binds
it, scatters otherwise (pruning shards whose synopses cannot match --
ISSUE 10), merges newest-beginTS-wins per primary key (the migration
double-read window), and fails and degrades like a point: a browned-out
shard outside a migration's fresh writes answers from its degraded pin,
and a shard that still cannot answer is named in a ``PartialResultError``.
Shards carrying secondary indexes split via per-index partition passes.
Every index holds the sharding key: the primary's key columns must be
the primary key, refused at construction otherwise.
"""

import pytest

from repro.core.definition import ColumnSpec, ColumnType
from repro.faults.crash import CrashSchedule, install_crash_schedule
from repro.faults.errors import SimulatedCrash
from repro.planner import Query
from repro.qos.errors import PartialResultError
from repro.storage.retry import TransientIOError
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.schema import IndexSpec, SchemaError, TableSchema


def make_orders_table(num_shards=3, planner="smart"):
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
    spec = IndexSpec(sort_columns=("order_id",))
    config = ShardConfig(
        planner=planner,
        secondary_indexes={
            "by_customer": IndexSpec(
                equality_columns=("customer",), included_columns=("amount",)
            ),
        },
    )
    return ShardedTable(schema, spec, num_shards=num_shards, config=config)


def make_iot_table(num_shards=2):
    """Secondary-free, sharding key inside the index key: splittable."""
    schema = TableSchema(
        name="iot",
        columns=(
            ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading"),
        ),
        primary_key=("device", "msg"),
        sharding_key=("device",),
    )
    spec = IndexSpec(("device",), ("msg",), ("reading",))
    return ShardedTable(
        schema, spec, num_shards=num_shards,
        config=ShardConfig(post_groom_every=2),
    )


def seed_orders(table, n=60):
    table.ingest([(i, f"c{i % 5}", f"r{i % 3}", i * 10) for i in range(n)])
    table.run_cycles(4)


class TestClusterTypedQueries:
    def test_routed_when_sharding_key_bound(self):
        table = make_orders_table()
        seed_orders(table)
        assert table.query(Query(equalities=(("order_id", 7),))) == [
            (7, "c2", "r1", 70)
        ]

    def test_scatter_gather_merges_sorted(self):
        table = make_orders_table()
        seed_orders(table)
        rows = table.query(Query(
            equalities=(("customer", "c2"),),
            projection=("order_id", "amount"),
        ))
        assert rows == [(i, i * 10) for i in range(60) if i % 5 == 2]

    def test_matches_single_shard_semantics(self):
        table = make_orders_table()
        seed_orders(table)
        query = Query(ranges=(("amount", 100, 200),),
                      projection=("order_id",))
        gathered = sorted(
            row
            for shard in table.shards
            for row in shard.query(query)
        )
        assert table.query(query) == gathered

    @pytest.mark.parametrize(
        "query",
        [
            Query(equalities=(("customer", "c2"),), projection=("order_id",)),
            # Routed to a single shard: named and epoch-tagged all the same.
            Query(equalities=(("order_id", 7),)),
        ],
        ids=["scatter", "routed"],
    )
    def test_failed_shard_surfaces_as_partial_result(self, monkeypatch, query):
        table = make_orders_table()
        seed_orders(table)
        victim = table.shard_of_key((7,))

        def boom(query, binding):  # the cluster's one Binding
            raise TransientIOError(f"shard {victim} storage down")

        monkeypatch.setattr(table.shards[victim], "_query_tagged", boom)
        with pytest.raises(PartialResultError) as excinfo:
            table.query(query)
        err = excinfo.value
        assert err.failed_shards == (victim,)
        assert err.epoch == table.routing_epoch()
        # The partial rows are exactly the surviving shards' answer
        # (none at all when the failed shard was the only one asked).
        survivors = sorted(
            row
            for shard_id, shard in enumerate(table.shards)
            if shard_id != victim
            for row in shard.query(query)
        )
        assert list(err.partial) == survivors


class TestSecondaryIndexSplit:
    def test_split_with_secondaries_preserves_typed_answers(self):
        """ISSUE 10 flips the old refusal: shards carrying secondary
        indexes split via per-index partition passes."""
        table = make_orders_table()
        seed_orders(table)
        routed = [Query(equalities=(("order_id", i),)) for i in range(60)]
        secondary = Query(
            equalities=(("customer", "c2"),),
            projection=("order_id", "amount"),
        )
        before_routed = [table.query(q) for q in routed]
        before_secondary = table.query(secondary)
        epoch_before = table.routing_epoch()
        result = table.split_shard(0)
        assert result["phase"] == "done"
        table.run_cycles(4)
        assert [table.query(q) for q in routed] == before_routed
        assert table.query(secondary) == before_secondary
        assert table.routing_epoch() == epoch_before + 2
        assert 0 not in table.live_shard_ids()
        # Both successors rebuilt the secondary too, at their own
        # publication sequences, covering every copied entry.
        total = 0
        for shard_id in table.live_shard_ids():
            shard = table.shards[shard_id]
            synopsis = shard.synopses.synopsis("by_customer")
            seq = shard.indexes.get("by_customer").index.lifecycle.version_seq
            assert synopsis.version_seq == seq
            total += synopsis.entry_count
        assert total == 60

    def test_ghost_state_survives_split_and_merge(self):
        """Ghost tracking survives reorganization: ghost counts travel
        with the copied entries, and a successor -- and later the fused
        target -- still answers the covered query index-only, every
        ghosted hit vouched for or answered by the primary."""
        table = make_orders_table()
        seed_orders(table)
        victim = table.shard_of_key((0,))
        key = next(
            i for i in range(60) if table.shard_of_key((i,)) == victim
        )
        covered = Query(equalities=(("customer", "c9"),),
                        projection=("order_id", "amount"))
        table.ingest([(key, "c9", "r9", 7)])  # customer changes: a ghost
        table.run_cycles(4)
        assert (
            table.shards[victim].indexes.pending_ghosts()["by_customer"] == 1
        )
        assert table.shards[victim].explain(covered)["index_only"]
        split = table.split_shard(victim)
        for successor in split["successors"]:
            ghosts = table.shards[successor].indexes.pending_ghosts()
            assert ghosts["by_customer"] >= 1
            assert table.shards[successor].explain(covered)["index_only"]
        merged = table.merge_shards(*split["successors"])
        target = merged["target"]
        assert (
            table.shards[target].indexes.pending_ghosts()["by_customer"] >= 1
        )
        assert table.shards[target].explain(covered)["index_only"]
        # And the typed answer over the ghosted secondary stays exact.
        assert table.query(covered) == [(key, 7)]
        assert (key, key * 10) not in table.query(
            Query(equalities=(("customer", f"c{key % 5}"),),
                  projection=("order_id", "amount"))
        )

    def test_a_primary_spec_off_the_primary_key_is_refused(self):
        """An index without the sharding key in its key columns cannot be
        built: the primary's key columns must be the primary key (which
        holds the sharding key), and every secondary ends with it."""
        schema = TableSchema(
            name="iot",
            columns=(
                ColumnSpec("device"), ColumnSpec("msg"),
                ColumnSpec("reading"),
            ),
            primary_key=("device", "msg"),
            sharding_key=("device",),
        )
        spec = IndexSpec(sort_columns=("msg", "reading"))
        with pytest.raises(SchemaError, match="must equal the table primary key"):
            WildfireShard(schema, spec)
        with pytest.raises(SchemaError, match="must equal the table primary key"):
            ShardedTable(schema, spec, num_shards=2)


class TestScatterPruning:
    def test_disjoint_bounds_prune_every_shard(self):
        table = make_orders_table()
        seed_orders(table)  # order_id 0..59, customers c0..c4
        base = table.scatter_stats()
        # A primary-key range above every shard's observed order_ids.
        assert table.query(Query(ranges=(("order_id", 1000, 2000),))) == []
        # A secondary string key above every by_customer range.
        assert table.query(Query(equalities=(("customer", "z"),))) == []
        stats = table.scatter_stats()
        assert stats["scatter_queries"] == base["scatter_queries"] + 2
        assert stats["shards_considered"] == base["shards_considered"] + 6
        assert stats["shards_pruned"] == base["shards_pruned"] + 6
        assert stats["shards_contacted"] == base["shards_contacted"]

    def test_overlapping_bounds_contact_every_shard(self):
        table = make_orders_table()
        seed_orders(table)
        base = table.scatter_stats()
        query = Query(ranges=(("amount", 100, 200),),
                      projection=("order_id",))
        rows = table.query(query)
        assert rows == sorted(
            row for shard in table.shards for row in shard.query(query)
        )
        stats = table.scatter_stats()
        assert stats["scatter_queries"] == base["scatter_queries"] + 1
        assert stats["shards_contacted"] == base["shards_contacted"] + 3
        assert stats["shards_pruned"] == base["shards_pruned"]

    def test_pruning_survives_a_split(self):
        """Successor synopses route the pruning decision after a split:
        the disjoint query still contacts zero shards and the matching
        query still answers identically."""
        table = make_orders_table()
        seed_orders(table)
        matching = Query(equalities=(("customer", "c2"),),
                         projection=("order_id", "amount"))
        before = table.query(matching)
        table.split_shard(0)
        table.run_cycles(4)
        base = table.scatter_stats()
        assert table.query(Query(equalities=(("customer", "z"),))) == []
        stats = table.scatter_stats()
        assert stats["shards_pruned"] == base["shards_pruned"] + len(
            table.live_shard_ids()
        )
        assert table.query(matching) == before


class TestTypedQueriesAcrossSplit:
    def test_query_and_synopses_survive_a_split(self):
        table = make_iot_table()
        rows = [(d, m, d * 100 + m) for d in range(8) for m in range(3)]
        table.ingest(rows)
        table.run_cycles(4)
        # The iot primary partitions on device, so every typed query
        # must equality-bind it (just like the legacy wrappers had to).
        queries = [
            Query(equalities=(("device", d),), projection=("msg", "reading"))
            for d in range(8)
        ]
        before = [table.query(q) for q in queries]
        table.split_shard(0)
        table.run_cycles(4)
        assert [table.query(q) for q in queries] == before
        # Every live shard's statistics are fresh at its current
        # publication sequence and sized to what it actually serves.
        total = 0
        for shard_id in table.live_shard_ids():
            shard = table.shards[shard_id]
            synopsis = shard.synopses.synopsis("primary")
            assert synopsis.version_seq == shard.index.lifecycle.version_seq
            total += synopsis.entry_count
        assert total == len(rows)

    def test_double_read_window_dedups_copied_entries(self):
        table = make_iot_table()
        table.ingest([(d, 0, d) for d in range(8)])
        table.run_cycles(4)
        # Crash the split after the write cutover (migrating published)
        # but before the final map: queries now double-read the slot --
        # the source and a successor both hold byte-identical copies of
        # every migrated key, and the merge must collapse them to one
        # row (typed queries, like the wrappers, serve the groomed
        # snapshot; post-cutover live-zone writes surface after the
        # recovery's drain below).
        with install_crash_schedule(
            CrashSchedule({"split.pre_publish": {1}})
        ):
            with pytest.raises(SimulatedCrash):
                table.split_shard(0)
        queries = [Query(equalities=(("device", d),)) for d in range(8)]
        assert [table.query(q) for q in queries] == [
            [(d, 0, d)] for d in range(8)
        ]
        # Roll forward, then update every key: the successors groom the
        # new versions and newest-beginTS wins over the retired copies.
        table.recover_migration()
        table.ingest([(d, 0, 1000 + d) for d in range(8)])
        table.run_cycles(4)
        assert [table.query(q) for q in queries] == [
            [(d, 0, 1000 + d)] for d in range(8)
        ]

    def test_merge_tagged_newest_begin_ts_wins(self):
        parts = [
            [((1,), 10, ("old",)), ((2,), 5, ("b",))],
            [((1,), 20, ("new",)), ((3,), 7, ("c",))],
            [((1,), 20, ("new",))],  # byte-identical double-read copy
        ]
        merged = ShardedTable._merge_tagged(parts)
        assert merged == sorted(
            [((2,), 5, ("b",)), ((3,), 7, ("c",)), ((1,), 20, ("new",))],
            key=lambda item: (item[2], item[0]),
        )
