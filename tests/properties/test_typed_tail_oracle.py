"""The typed path's per-row tail, against the tail it replaced.

``WildfireShard._execute_plan`` runs a plan's entry residuals on each
``IndexEntry``'s own field (resolved once per compiled plan), builds rows
only for the entries that pass, and reads records as ``(values,
beginTS)`` pairs.  ``tests/reference_typed_tail.py`` keeps the tail it
replaced: a row for every entry, the residuals by flat offset, then a
full :class:`Record` per fetch.

Seeded rounds of upserts -- new keys, customer moves, amount changes;
``region`` follows the key and never moves, as in the e2e table, so
``by_region`` stays index-only -- with ticks (grooms, post-grooms,
evolves) between rounds feed a 2-shard table carrying both e2e
secondaries and a ``planner="baseline"`` twin.  After every round, at the
latest snapshot and AS-OF one taken mid-stream, each query below must
give every shard the same ``(pk, beginTS, row)`` tags under both tails
and under the twin's primary path, and the table the same rows as the
twin:

* ``by_region`` index-only with an ``amount`` residual, and its full-row
  twin (a fetch-back that runs the same residual first);
* ``customer`` while customers move: a full-row fetch-back, index-only
  projections with and without an ``amount`` residual (the ghosted hits
  vouched for or answered by the primary) and a non-covering projection
  with the residual (a fetch-back that runs it first);
* primary ranges, full-row, projected and with a record residual, and
  primary points.
"""

import random
from collections import Counter

import pytest

from repro.core.definition import ColumnSpec, ColumnType
from repro.planner import Query
from repro.planner.plan import Binding
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import ShardConfig
from repro.wildfire.schema import IndexSpec, TableSchema

from tests import reference_typed_tail

KEYS = 120
CUSTOMERS = 6
REGIONS = 4
ROUNDS = 6
SNAPSHOT_AFTER = 1


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
    """One round's rows: new keys, customer moves and amount changes."""
    rows = []
    for _ in range(30):
        key = rng.randrange(KEYS)
        customer = f"c{rng.randrange(CUSTOMERS)}"
        previous = latest.get(key)
        if previous is not None and rng.random() < 0.5:
            customer = previous[1]  # an amount-only update
        latest[key] = row = (key, customer, f"r{key % REGIONS}", rng.randrange(3000))
        rows.append(row)
    return rows


def queries(rng, query_ts):
    for r in range(REGIONS):
        low = rng.randrange(2000)
        amount = (("amount", low, low + 1000),)
        yield Query(ranges=((("region", f"r{r}", f"r{r}"),) + amount),
                    projection=("order_id", "amount"), query_ts=query_ts)
        yield Query(equalities=(("region", f"r{r}"),), ranges=amount,
                    query_ts=query_ts)
    for c in range(CUSTOMERS):
        customer = (("customer", f"c{c}"),)
        yield Query(equalities=customer, query_ts=query_ts)
        yield Query(equalities=customer, projection=("order_id", "amount"),
                    query_ts=query_ts)
        yield Query(equalities=customer, ranges=(("amount", 0, 1500),),
                    projection=("amount", "customer"), query_ts=query_ts)
        yield Query(equalities=customer, ranges=(("amount", 0, 1500),),
                    projection=("amount", "region"), query_ts=query_ts)
    for _ in range(3):
        low = rng.randrange(KEYS)
        keys = ("order_id", low, low + 30)
        yield Query(ranges=(keys,), query_ts=query_ts)
        yield Query(ranges=(keys,), projection=("customer", "order_id"),
                    query_ts=query_ts)
        yield Query(ranges=(keys, ("amount", 1000, None)), query_ts=query_ts)
        yield Query(equalities=(("order_id", low),), query_ts=query_ts)


def tagged(shard, query):
    return sorted(shard._query_tagged(query, Binding(shard.schema, query)))


def check(table, twin, query, reached):
    for shard_id in table.live_shard_ids():
        shard = table.shards[shard_id]
        plan = shard.plan_query(query, Binding(shard.schema, query))
        reached[plan.index_name, plan.index_only, bool(plan.entry_residuals)] += 1
        answer = tagged(shard, query)
        reference_typed_tail.install(shard)
        try:
            assert answer == tagged(shard, query), query
        finally:
            reference_typed_tail.uninstall(shard)
        assert answer == tagged(twin.shards[shard_id], query), query
    assert table.query(query) == twin.query(query), query


@pytest.mark.parametrize("seed", [0, 1])
def test_typed_tail_matches_reference_and_baseline(seed):
    rng = random.Random(seed)
    table, twin = make_table("smart"), make_table("baseline")
    latest = {}
    snapshot = None
    reached = Counter()
    for round_no in range(ROUNDS):
        rows = upserts(rng, latest)
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
        for query in queries(rng, None):
            check(table, twin, query, reached)
        if snapshot is not None:
            for query in queries(rng, snapshot):
                check(table, twin, query, reached)
    ghosted = set().union(*[
        table.shards[shard_id].indexes.get("by_customer").ghosted
        for shard_id in table.live_shard_ids()
    ])
    assert ghosted, "no customer moved"
    # Every path the tail serves was taken: index-only with and without a
    # residual (on the moving secondary too), fetch-back with and without
    # one, and the primary.
    assert reached["by_region", True, True]
    assert reached["by_region", False, True]
    assert reached["by_customer", True, False]
    assert reached["by_customer", True, True]
    assert reached["by_customer", False, False]
    assert reached["by_customer", False, True]
    assert reached["primary", False, False]
