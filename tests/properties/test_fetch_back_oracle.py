"""Fetch back only ghosted keys, against the fetch-back of every hit.

A fetch-back plan resolves through the primary only the winners whose
primary key is in the secondary's ``ghosted`` set; every other winner's
own RID is read.  ``tests/reference_fetch_back.py`` keeps the executor
that sent every winner through the primary.  Seeded rounds of upserts --
some moving ``customer`` and/or ``region``, some changing only
``amount``, with ticks (grooms, post-grooms, evolves) between rounds and
one split and one merge on the way -- feed a 2-shard table carrying both
e2e secondaries and a ``planner="baseline"`` twin.  After every round,
customer and region queries, full-row and projected, at the latest
snapshot and AS-OF a snapshot taken mid-stream, must give the same rows
three ways: the shortcut, the reference executor on the same table and
the twin's primary path.  The keys the shortcut hands to the primary's
``batch_lookup`` must be exactly the ghosted keys among the winners (no
call when there are none), and the live shards' ghosted sets must add up
to exactly the keys whose secondary key ever moved.
"""

import random

import pytest

from repro.core.definition import ColumnSpec, ColumnType
from repro.planner import Query
from repro.planner.plan import Binding
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import ShardConfig, _within
from repro.wildfire.schema import IndexSpec, TableSchema

from tests import reference_fetch_back

KEYS = 90
CUSTOMERS = 6
REGIONS = 4
ROUNDS = 8
SNAPSHOT_AFTER, SPLIT_AFTER, MERGE_AFTER = 2, 3, 5


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
            "by_region": IndexSpec(
                sort_columns=("region",), included_columns=("amount",)
            ),
        },
    )
    return ShardedTable(
        schema, IndexSpec(sort_columns=("order_id",)), num_shards=2,
        config=config,
    )


def upserts(rng, latest):
    """One round's rows: new keys, moves of customer and/or region, and
    amount-only updates (which ghost nothing)."""
    rows = []
    for _ in range(24):
        key = rng.randrange(KEYS)
        previous = latest.get(key)
        customer = f"c{rng.randrange(CUSTOMERS)}"
        region = f"r{rng.randrange(REGIONS)}"
        amount = rng.randrange(3000)
        if previous is not None:
            kind = rng.choice(["customer", "region", "both", "amount", "amount"])
            if kind not in ("customer", "both"):
                customer = previous[1]
            if kind not in ("region", "both"):
                region = previous[2]
        latest[key] = row = (key, customer, region, amount)
        rows.append(row)
    return rows


def queries(query_ts):
    for c in range(CUSTOMERS):
        yield Query(equalities=(("customer", f"c{c}"),), query_ts=query_ts)
        yield Query(equalities=(("customer", f"c{c}"),),
                    projection=("order_id", "amount"), query_ts=query_ts)
    for r in range(REGIONS):
        yield Query(equalities=(("region", f"r{r}"),), query_ts=query_ts)
        yield Query(equalities=(("region", f"r{r}"),),
                    ranges=(("amount", 500, 2500),),
                    projection=("region", "amount"), query_ts=query_ts)


def expected_batch(shard, query):
    """The primary keys a fetch-back must resolve: the winners' ghosted
    ones, recomputed off the secondary's entries."""
    plan = shard.plan_query(query, Binding(shard.schema, query))
    if not plan.fetch_back:
        return []
    shard_index = shard.indexes.get(plan.index_name)
    ts = query.query_ts if query.query_ts is not None else shard.clock.snapshot_ts
    rows = [
        entry.equality_values + entry.sort_values + entry.include_values
        for entry in shard_index.index.scan(
            plan.equality_values, plan.sort_lower, plan.sort_upper, ts
        )
    ]
    for p in plan.entry_residuals:
        rows = _within(rows, [row[p.offset] for row in rows], p.low, p.high)
    ghosted = sorted({
        pk for pk in map(plan.entry_pk, rows) if pk in shard_index.ghosted
    })
    return [list(map(shard._primary_key_of_pk, ghosted))] if ghosted else []


def check(table, twin, query):
    live = [table.shards[shard_id] for shard_id in table.live_shard_ids()]
    expected = {id(shard): expected_batch(shard, query) for shard in live}
    batches = {id(shard): [] for shard in live}
    for shard in live:
        def batch_lookup(keys, ts, _inner=shard.index.batch_lookup,
                         _seen=batches[id(shard)]):
            _seen.append(list(keys))
            return _inner(keys, ts)
        shard.index.batch_lookup = batch_lookup
    try:
        answer = table.query(query)
    finally:
        for shard in live:
            del shard.index.batch_lookup
    assert batches == expected, query
    for shard in live:
        reference_fetch_back.install(shard)
    try:
        reference = table.query(query)
    finally:
        for shard in live:
            reference_fetch_back.uninstall(shard)
    assert answer == reference, query
    assert answer == twin.query(query), query


def moved_keys(history, column):
    return {(key,) for key, values in history.items() if len(values[column]) > 1}


@pytest.mark.parametrize("seed", [0, 1])
def test_ghosted_fetch_back_matches_reference_and_baseline(seed):
    rng = random.Random(seed)
    table, twin = make_table("smart"), make_table("baseline")
    latest, history = {}, {}
    snapshot = None
    successors = None
    for round_no in range(ROUNDS):
        rows = upserts(rng, latest)
        for row in rows:
            seen = history.setdefault(row[0], {1: set(), 2: set()})
            seen[1].add(row[1])
            seen[2].add(row[2])
        ticks = rng.randint(1, 2)
        for t in (table, twin):
            t.ingest(rows)
            for _ in range(ticks):
                t.tick()
        if round_no == SNAPSHOT_AFTER:
            snapshot = min(
                table.shards[shard_id].clock.snapshot_ts
                for shard_id in table.live_shard_ids()
            )
        if round_no == SPLIT_AFTER:
            split = table.split_shard(0)
            assert twin.split_shard(0)["successors"] == split["successors"]
            successors = split["successors"]
        if round_no == MERGE_AFTER:
            merged = table.merge_shards(*successors)
            assert twin.merge_shards(*successors)["target"] == merged["target"]
        for name, column in (("by_customer", 1), ("by_region", 2)):
            ghosted = set().union(*[
                table.shards[shard_id].indexes.get(name).ghosted
                for shard_id in table.live_shard_ids()
            ])
            assert ghosted == moved_keys(history, column), name
        for query in queries(None):
            check(table, twin, query)
        if snapshot is not None:
            for query in queries(snapshot):
                check(table, twin, query)
