"""Merges repair a secondary's stale entries, and its ghosts are forgotten.

A moved order leaves an entry under its old customer (it has no endTS);
the shard ghosts the order and every secondary plan vouches for its hits
by ``ghosted``.  Once the order's newest version is at or below the
retention horizon, a merge drops the old entries, and once no live or
pinned run can hold one any more, the ghost is forgotten.  The level shape
rewrites one last-level run per merge, so after the moves stop and the
horizon passes them, every run holding a stale entry is rewritten.
"""

import pytest

from repro.core.definition import ColumnSpec
from repro.core.index import UmziConfig
from repro.core.levels import LevelConfig
from repro.planner import Query
from repro.wildfire.engine import TIME_TRAVEL_WINDOW_CYCLES, ShardConfig, WildfireShard
from repro.wildfire.schema import IndexSpec, TableSchema

ORDERS, MOVED = 12, range(0, 12, 2)
COVERED = ("order_id", "amount")
REWRITING = LevelConfig(
    groomed_levels=2, post_groomed_levels=2, max_runs_per_level=1, size_ratio=1000
)


def make_shard(planner="smart"):
    schema = TableSchema(
        name="orders",
        columns=(ColumnSpec("order_id"), ColumnSpec("customer"), ColumnSpec("amount")),
        primary_key=("order_id",),
        sharding_key=("order_id",),
    )
    return WildfireShard(
        schema, IndexSpec(sort_columns=("order_id",), included_columns=("amount",)),
        config=ShardConfig(
            post_groom_every=2, planner=planner, umzi=UmziConfig(levels=REWRITING),
            secondary_indexes={"by_customer": IndexSpec(
                equality_columns=("customer",), included_columns=("amount",),
            )},
        ),
    )


def moved_then_aged(shard, cycles):
    """Orders under customer 0, half of them moved to 1 and back and to 1
    again, then ``cycles`` grooms of fresh orders only (no further move)."""
    shard.ingest([(k, 0, k) for k in range(ORDERS)])
    shard.tick()
    for customer in (1, 0, 1):
        shard.ingest([(k, customer, 10 * k + customer) for k in MOVED])
        shard.tick()
    for cycle in range(cycles):
        shard.ingest([(1000 + cycle, 2, cycle)])
        shard.tick()


def customer_rows(shard, customer):
    return shard.query(Query(equalities=(("customer", customer),), projection=COVERED))


def stale_entries(shard):
    """``(customer, order)`` pairs of secondary entries in live runs whose
    order's newest row has another customer."""
    now = {row[0]: row[1] for row in shard.query(Query(ranges=(("order_id", 0, 10**6),)))}
    index = shard.indexes.get("by_customer").index
    return {
        (entry.equality_values[0], entry.sort_values[0])
        for customer in (0, 1, 2)
        for entry in index.scan((customer,), query_ts=1 << 62)
        if now[entry.sort_values[0]] != entry.equality_values[0]
    }


def test_ghosts_are_forgotten_once_every_run_is_repaired():
    shard, twin = make_shard(), make_shard(planner="baseline")
    for table in (shard, twin):
        moved_then_aged(table, 3)
    assert shard.indexes.pending_ghosts()["by_customer"] == len(MOVED)
    assert stale_entries(shard)
    for table in (shard, twin):
        for cycle in range(TIME_TRAVEL_WINDOW_CYCLES + 6):
            table.ingest([(2000 + cycle, 2, cycle)])
            table.tick()
    assert shard.indexes.pending_ghosts()["by_customer"] == 0
    assert shard.indexes.get("by_customer").stale == {}
    assert stale_entries(shard) == set()
    plan = shard.explain(Query(equalities=(("customer", 1),), projection=COVERED))
    assert plan["index"] == "by_customer" and plan["index_only"]
    for customer in (0, 1, 2):
        assert customer_rows(shard, customer) == customer_rows(twin, customer)
    assert customer_rows(shard, 1) == [(k, 10 * k + 1) for k in MOVED]


def age_past_the_window(shard):
    """Fresh orders for more than the window: every live run is repaired."""
    for cycle in range(TIME_TRAVEL_WINDOW_CYCLES + 6):
        shard.ingest([(2000 + cycle, 2, cycle)])
        shard.tick()
    assert stale_entries(shard) == set()


def test_a_query_pinned_before_the_repair_keeps_its_ghosts():
    """A query pins its snapshot, then -- before it scans -- the horizon
    passes the moves and the merges repair every live run.  Its pinned
    runs still hold the stale entries: the ghosts stay until it releases
    the pin, and its answer has no stale row."""
    shard = make_shard()
    moved_then_aged(shard, 3)
    lifecycle = shard.indexes.get("by_customer").index.lifecycle
    pin, held = lifecycle.pin, []

    def pin_then_age():
        pinned = pin()
        if not held:
            held.append(pinned)
            age_past_the_window(shard)
            assert shard.indexes.pending_ghosts()["by_customer"] == len(MOVED)
        return pinned

    lifecycle.pin = pin_then_age
    try:
        answer = customer_rows(shard, 0)
    finally:
        del lifecycle.pin
    assert held and answer == [(k, k) for k in range(ORDERS) if k not in MOVED]
    shard.tick()  # the pin is gone: nothing holds a stale entry now
    assert shard.indexes.pending_ghosts()["by_customer"] == 0


def test_a_repair_between_the_scan_and_the_vouch_keeps_its_answer():
    """The scan has released its pin, and the horizon passes the moves and
    the merges forget every ghost before the query vouches for its hits:
    it vouches by the map it read before the scan, which still doubts the
    stale entries it found."""
    shard = make_shard()
    moved_then_aged(shard, 3)
    lifecycle = shard.indexes.get("by_customer").index.lifecycle
    release, aged = lifecycle.release, []

    def release_then_age(*args):
        release(*args)
        if not aged:
            aged.append(True)
            age_past_the_window(shard)
            assert shard.indexes.pending_ghosts()["by_customer"] == 0

    lifecycle.release = release_then_age
    try:
        answer = customer_rows(shard, 0)
    finally:
        del lifecycle.release
    assert aged and answer == [(k, k) for k in range(ORDERS) if k not in MOVED]


def test_a_groom_after_a_repair_marks_the_map_a_query_merges_in():
    """Between the query's bind and its scan, a repair forgets into a new
    map and a groom then moves order 1 there.  A query reading past the
    snapshot sees the move's entries, so it must doubt order 1's old one
    by the new map as well as the one it bound."""
    shard = make_shard()
    moved_then_aged(shard, 3)
    lifecycle = shard.indexes.get("by_customer").index.lifecycle
    pin, held = lifecycle.pin, []

    def age_move_then_pin():
        if not held:
            held.append(True)
            age_past_the_window(shard)
            shard.ingest([(1, 3, 13)])
            shard.tick()
        return pin()

    lifecycle.pin = age_move_then_pin
    try:
        answer = shard.query(Query(
            equalities=(("customer", 0),), projection=COVERED, query_ts=1 << 62,
        ))
    finally:
        del lifecycle.pin
    assert held and answer == [(k, k) for k in range(ORDERS) if k not in MOVED and k != 1]


@pytest.mark.parametrize("cycles", [0, TIME_TRAVEL_WINDOW_CYCLES - 4])
def test_no_ghost_is_forgotten_inside_the_window(cycles):
    shard = make_shard()
    moved_then_aged(shard, cycles)
    assert shard.indexes.pending_ghosts()["by_customer"] == len(MOVED)
    assert customer_rows(shard, 0) == [(k, k) for k in range(ORDERS) if k not in MOVED]
