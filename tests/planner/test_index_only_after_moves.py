"""A covering secondary stays index-only after its rows move.

A row whose secondary *key* column changes leaves its old entry visible
under the old key (secondary entries carry no endTS); the shard records
the key and its newest version (``ShardIndex.ghosted``), and every
secondary plan vouches for its hits from that record.  So the customer
query projected to ``(order_id, amount)`` -- covered by ``by_customer``'s
entry columns -- plans index-only before a move, at once after one, after
a move there and back, and on every successor of a split and a merge,
and answers as a ``planner="baseline"`` twin does: at the latest
snapshot, AS-OF before a move (the moved key is doubtful and goes
through the primary) and when a groom overtakes the read's scan.
"""

from repro.core.definition import ColumnSpec, ColumnType
from repro.planner import Query
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import ShardConfig
from repro.wildfire.schema import IndexSpec, TableSchema

CUSTOMERS = ("c0", "c1", "c2")


def make_table(planner):
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
    config = ShardConfig(
        planner=planner,
        post_groom_every=3,
        secondary_indexes={
            "by_customer": IndexSpec(
                equality_columns=("customer",), included_columns=("amount",)
            ),
        },
    )
    return ShardedTable(
        schema, IndexSpec(sort_columns=("order_id",)), num_shards=1,
        config=config,
    )


def covered(customer, query_ts=None):
    return Query(equalities=(("customer", customer),),
                 projection=("order_id", "amount"), query_ts=query_ts)


def live_shards(table):
    return [table.shards[shard_id] for shard_id in table.live_shard_ids()]


def assert_index_only(table):
    for shard in live_shards(table):
        for customer in CUSTOMERS:
            plan = shard.explain(covered(customer))
            assert plan["index"] == "by_customer", plan
            assert plan["index_only"] and not plan["fetch_back"], plan


def assert_answers_match(table, twin, query_ts=None):
    for customer in CUSTOMERS:
        query = covered(customer, query_ts)
        assert table.query(query) == twin.query(query), query


def apply(tables, rows, cycles=2):
    for t in tables:
        t.ingest(rows)
        t.run_cycles(cycles)


def loaded():
    table, twin = make_table("smart"), make_table("baseline")
    apply((table, twin), [(k, CUSTOMERS[k % 3], "r0", 10 * k) for k in range(30)])
    return table, twin


def test_a_move_and_a_move_back_keep_the_plan_index_only():
    table, twin = loaded()
    assert_index_only(table)
    before = table.shards[0].clock.snapshot_ts

    apply((table, twin), [(3, "c1", "r0", 31)])  # order 3: c0 -> c1
    assert table.shards[0].indexes.pending_ghosts()["by_customer"] == 1
    assert_index_only(table)
    assert_answers_match(table, twin)
    assert (3, 30) not in table.query(covered("c0"))
    assert (3, 31) in table.query(covered("c1"))
    between = table.shards[0].clock.snapshot_ts

    # AS-OF before the move the old entry is order 3's visible version but
    # not its newest: the index-only plan hands it to the primary.
    shard = table.shards[0]
    batches = []

    def batch_lookup(keys, ts, _inner=shard.index.batch_lookup):
        batches.append(list(keys))
        return _inner(keys, ts)

    shard.index.batch_lookup = batch_lookup
    try:
        assert table.query(covered("c0", before)) == twin.query(covered("c0", before))
    finally:
        del shard.index.batch_lookup
    assert batches == [[shard._primary_key_of_pk((3,))]]
    assert (3, 30) in table.query(covered("c0", before))
    assert_answers_match(table, twin, before)

    apply((table, twin), [(3, "c0", "r0", 32)])  # and back: c1 -> c0
    assert_index_only(table)
    assert_answers_match(table, twin)
    assert_answers_match(table, twin, before)
    assert_answers_match(table, twin, between)
    assert (3, 32) in table.query(covered("c0"))
    assert all(row[0] != 3 for row in table.query(covered("c1")))


def test_a_groom_overtaking_an_index_only_scan_leaves_its_version_to_the_primary():
    # The index-only twin of the fetch-back race: order 5 moved from c1 to
    # c2 and a newer c2 version waits in the live log.  A read far in the
    # future scans by_customer, and only then does that version's groom
    # publish and record it: the c2 hit the scan holds is doubtful, and
    # the primary answers with the newer version.
    table = make_table("smart")
    for amount, customer in ((10, "c1"), (20, "c2")):
        table.ingest([(5, customer, "r1", amount)])
        table.tick()
    table.ingest([(5, "c2", "r1", 30)])
    shard = table.shards[0]
    query = covered("c2", query_ts=2**62)
    assert shard.explain(query)["index_only"]
    index = shard.indexes.get("by_customer").index

    def scan(*args, _inner=index.scan):
        hits = _inner(*args)
        del index.scan
        shard.tick()
        return hits

    index.scan = scan
    rows = table.query(query)
    assert "scan" not in vars(index), "the query never scanned by_customer"
    assert rows == [(5, 30)]


def test_every_split_and_merge_successor_plans_index_only():
    table, twin = loaded()
    before = table.shards[0].clock.snapshot_ts
    apply((table, twin), [(k, CUSTOMERS[(k + 1) % 3], "r0", 10 * k + 1)
                          for k in range(0, 30, 4)])
    successors = table.split_shard(0)["successors"]
    assert twin.split_shard(0)["successors"] == successors
    assert sorted(table.live_shard_ids()) == sorted(successors)
    assert_index_only(table)
    assert_answers_match(table, twin)
    assert_answers_match(table, twin, before)

    target = table.merge_shards(*successors)["target"]
    assert twin.merge_shards(*successors)["target"] == target
    assert table.live_shard_ids() == [target]
    assert_index_only(table)
    assert_answers_match(table, twin)
    assert_answers_match(table, twin, before)
    apply((table, twin), [(k, CUSTOMERS[k % 3], "r0", 10 * k + 2)
                          for k in range(0, 30, 4)])
    assert_index_only(table)
    assert_answers_match(table, twin)
    assert_answers_match(table, twin, before)
