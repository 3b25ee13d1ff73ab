"""Sharded order processing with a secondary index.

Combines the two extensions this reproduction builds on top of the paper:

* a **multi-shard table** (section 3's deployment shape: one Umzi index
  instance per shard, independent indexer daemons, hash routing by the
  sharding key);
* a **secondary Umzi index** (section 10's future work) over the customer
  column, maintained in lockstep with the primary through every groom and
  evolve on every shard.

Run:  python examples/multi_shard_orders.py
"""

import random

from repro.core.definition import ColumnSpec
from repro.planner import Query
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import ShardConfig
from repro.wildfire.schema import IndexSpec, TableSchema

NUM_SHARDS = 4
CUSTOMERS = 20
ORDERS = 600


def main() -> None:
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
    table = ShardedTable(
        schema,
        IndexSpec(equality_columns=("order_id",),
                  included_columns=("customer", "amount")),
        num_shards=NUM_SHARDS,
        config=ShardConfig(
            post_groom_every=3,
            secondary_indexes={
                "by_customer": IndexSpec(
                    equality_columns=("customer",),
                    included_columns=("amount",),
                ),
            },
        ),
    )

    rng = random.Random(2024)
    print(f"ingesting {ORDERS} orders into {NUM_SHARDS} shards ...")
    batch = []
    for order_id in range(ORDERS):
        batch.append((order_id, rng.randrange(CUSTOMERS), rng.randrange(5, 500)))
        if len(batch) == 50:
            distribution = table.ingest(batch)
            table.tick()
            batch = []
    if batch:
        table.ingest(batch)
    table.run_cycles(4)

    stats = table.stats()
    print(f"total indexed entries: {stats['total_entries']}")
    for shard_id, shard in enumerate(table.shards):
        s = shard.stats()["index"]
        print(f"  shard {shard_id}: {s.total_entries:>4} entries, "
              f"{s.total_runs} runs, indexed PSN "
              f"{shard.index.indexed_psn}")

    # Routed point read: the sharding key (order_id) is the primary key.
    order = table.point_query((123,))
    print(f"\norder 123 -> customer={order.values[1]} amount={order.values[2]}")

    # Per-customer order history: one typed query, which the table fans out
    # to every shard and each shard's planner answers off the secondary.
    def history(customer):
        return table.query(Query(equalities=(("customer", customer),),
                                 projection=("order_id", "amount")))

    customer = order.values[1]
    rows = history(customer)
    print(f"customer {customer}: {len(rows)} orders, lifetime value "
          f"{sum(amount for _, amount in rows)} (via the secondary index "
          "on every shard)")

    # Move order 123 to another customer; the secondary view follows the
    # newest version: the order leaves the old list and joins the new one.
    other = (customer + 1) % CUSTOMERS
    table.ingest([(123, other, 9_999)])
    table.run_cycles(4)
    assert all(order_id != 123 for order_id, _ in history(customer))
    assert (123, 9_999) in history(other)
    print(f"after moving order 123 to customer {other}: customer {customer} "
          f"has {len(history(customer))} orders, customer {other} "
          f"{len(history(other))}")

    # One shard's node crashes; the others keep serving, it recovers.
    victim = table.shard_of_row((123, other, 0))
    table.crash_and_recover_shard(victim)
    order = table.point_query((123,))
    print(f"shard {victim} crashed and recovered; order 123 amount = "
          f"{order.values[2]}")


if __name__ == "__main__":
    main()
