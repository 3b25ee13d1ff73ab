"""A shard's retention horizon against a dict of versions.

Every ``tick`` sets each index's retention horizon
``TIME_TRAVEL_WINDOW_CYCLES`` groom cycles behind the shard's snapshot;
merges collect the versions no snapshot at or after it reads, and a
secondary's merges drop the entries its moved keys left behind.  Seeded
rounds upsert orders under random customers -- moves, moves back and
amount-only updates -- for more than the window, through a pumped split
and a pumped merge, on a level shape whose merges keep rewriting one
last-level run (so versions and stale entries really go).  After every
round, every live shard answers each customer, full rows and the
index-only projection, exactly as the model does at the latest snapshot
and AS-OF the newest earlier ones -- every earlier snapshot each fifth
round -- at or above its horizon, and refuses every one below it with
``SnapshotTooOldError``; the table's door answers the latest snapshot
the same way.
"""

import math
import random

import pytest

from repro.core.definition import ColumnSpec
from repro.core.index import UmziConfig
from repro.core.levels import LevelConfig
from repro.core.query import SnapshotTooOldError
from repro.planner import Query
from repro.wildfire.clock import decompose_begin_ts
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import TIME_TRAVEL_WINDOW_CYCLES, ShardConfig
from repro.wildfire.schema import IndexSpec, TableSchema

KEYS, CUSTOMERS = 12, 3
ROUNDS = TIME_TRAVEL_WINDOW_CYCLES + 26  # one groom per round
SPLIT_ROUND, MERGE_ROUND = 30, 45
COVERED = ("order_id", "amount")
# Level 1 and the post-groomed zone's last level never fill: each merge
# rewrites their one active run at the current horizon.
REWRITING = LevelConfig(
    groomed_levels=2, post_groomed_levels=2, max_runs_per_level=1, size_ratio=1000
)


def orders_table() -> ShardedTable:
    schema = TableSchema(
        name="orders",
        columns=(ColumnSpec("order_id"), ColumnSpec("customer"), ColumnSpec("amount")),
        primary_key=("order_id",),
        sharding_key=("order_id",),
        partition_key=("customer",),
    )
    config = ShardConfig(
        post_groom_every=2,
        umzi=UmziConfig(levels=REWRITING),
        secondary_indexes={
            "by_customer": IndexSpec(
                equality_columns=("customer",), included_columns=("amount",)
            ),
        },
    )
    return ShardedTable(
        schema, IndexSpec(equality_columns=("order_id",), included_columns=("amount",)),
        num_shards=1, config=config,
    )


def visible_at(versions, ts):
    """Each order's newest version groomed at or before ``ts`` (``None``:
    the latest)."""
    cycle = math.inf if ts is None else decompose_begin_ts(ts)[0]
    rows = []
    for history in versions.values():
        rows.extend([row for groomed, row in history if groomed <= cycle][-1:])
    return rows


def by_customer(customer, projection, ts):
    return Query(equalities=(("customer", customer),), projection=projection,
                 query_ts=ts)


def pump(summary, table):
    while summary["phase"] != "done":
        summary = table.migration_step(budget=4)


@pytest.mark.slow
def test_answers_at_or_above_the_horizon_and_refusals_below_it():
    table = orders_table()
    rng = random.Random(52)
    versions = {}  # order_id -> [(groom cycle, row)], oldest first
    snapshots = []
    refused = collected = 0
    for round_ in range(ROUNDS):
        if round_ == SPLIT_ROUND:
            pump(table.begin_split(0), table)
        elif round_ == MERGE_ROUND:
            pump(table.begin_merge(*table.live_shard_ids()), table)
        keys = range(KEYS) if round_ == 0 else rng.sample(range(KEYS), KEYS // 2)
        rows = [(k, rng.randrange(CUSTOMERS), 100 * round_ + k) for k in keys]
        table.ingest(rows)
        table.run_cycles(2)
        for row in rows:
            clock = table.shards[table.shard_of_row(row)].clock
            versions.setdefault(row[0], []).append((clock.groom_cycle, row))
        live = [table.shards[shard_id] for shard_id in table.live_shard_ids()]
        # Every snapshot every fifth round and at the end, else the newest.
        every = round_ % 5 == 4 or round_ == ROUNDS - 1
        for ts in (None, *(snapshots if every else snapshots[-2:])):
            visible = visible_at(versions, ts)
            for shard in live:
                mine = [row for row in visible if table.shards[table.shard_of_row(row)] is shard]
                for c in range(CUSTOMERS):
                    full = sorted(row for row in mine if row[1] == c)
                    for projection, want in ((None, full),
                                             (COVERED, [(r[0], r[2]) for r in full])):
                        where = (round_, ts, c, projection)
                        if ts is not None and ts < shard.index.retention_ts:
                            with pytest.raises(SnapshotTooOldError):
                                shard.query(by_customer(c, projection, ts))
                            refused += 1
                        else:
                            assert shard.query(by_customer(c, projection, ts)) == want, where
        for c in range(CUSTOMERS):
            want = sorted(row for row in visible_at(versions, None) if row[1] == c)
            assert table.query(by_customer(c, None, None)) == want, (round_, c)
        snapshots.append(max(shard.clock.snapshot_ts for shard in live))
        collected = max(collected, sum(len(h) for h in versions.values()) - sum(
            run.entry_count for shard in live for run in shard.index.all_runs()
        ))
    (shard,) = [table.shards[shard_id] for shard_id in table.live_shard_ids()]
    assert decompose_begin_ts(shard.index.retention_ts)[0] > 0
    assert refused and collected > 0  # the horizon refused reads and collected versions
