"""One binding per typed scatter, against every shard planning on its own.

``ShardedTable.query`` type-checks a typed query once and hands every
shard it reaches one :class:`~repro.planner.plan.Binding`: each shard still
ranks the candidates on its own synopses, but the key arguments, the bound
residuals and the encoded scan bounds of each (index, variant) picked are
worked out once per query, and the shards of a table share one compile of
the shape.  ``tests/reference_scatter_plan.py`` keeps the planning it
replaced: a fresh compile, a type check, a bind and an encode on every
shard.

The fixture is a 4-shard table carrying both e2e secondaries and a
``planner="baseline"`` twin.  Keys on one shard (the last) move only their
region, so ``by_region`` has ghosts there alone, and a projected region
query still runs ``by_region`` index-only on every shard, the moved one
included (each hit vouched for by its key's recorded newest version).
A few far-out order ids stretch one other shard's ``order_id`` span, so
the shards of one query rank candidates differently: a region query
narrowed by an ``order_id`` range runs the primary on the stretched shard
and ``by_region`` index-only on the rest, and its full-row twin over a
wider range runs the primary there and a fetch-back on the rest.
Customer, region (projected and full-row, with an ``amount`` residual),
primary range and point queries run at the latest snapshot and AS-OF one
taken before the moves, then again inside a ``begin_split`` window and a
``begin_merge`` window (double-reads).  For every query, every contacted
shard's plan (``explain()``, bound key arguments and residuals, encoded
bounds) and ``(pk, beginTS, row)`` tags must equal the reference's and its
tags the twin's; the table's rows must equal the twin's and the reference
tags merged; and the bounds must have been encoded once per (index,
variant) picked at most, not once per shard.
"""

from collections import Counter, defaultdict

import pytest

from repro.core.definition import ColumnSpec, ColumnType
from repro.core.query import RangeScanQuery, compute_scan_bounds
from repro.planner import Query
from repro.planner import plan as plan_module
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import ShardConfig
from repro.wildfire.schema import IndexSpec, TableSchema

from tests.reference_scatter_plan import reference_plan, reference_tagged

SHARDS = 4
KEYS = 160
CUSTOMERS = 5
REGIONS = 4
MOVED_SHARD = SHARDS - 1
STRETCHED_SHARD = 0
FAR_KEY = 20_000  # six keys from here stretch STRETCHED_SHARD's order_id span


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
        schema, IndexSpec(sort_columns=("order_id",)), num_shards=SHARDS,
        config=config,
    )


def row(key, region_shift=0, generation=0):
    return (
        key, f"c{key % CUSTOMERS}", f"r{(key // 3 + region_shift) % REGIONS}",
        (key * 37 + generation * 11) % 3000,
    )


def queries(query_ts):
    for c in range(CUSTOMERS):
        yield Query(equalities=(("customer", f"c{c}"),), query_ts=query_ts)
    for r in range(REGIONS):
        region = ("region", f"r{r}", f"r{r}")
        amount = ("amount", 0, 1500)
        yield Query(ranges=(region, amount), projection=("order_id", "amount"),
                    query_ts=query_ts)
        yield Query(ranges=(region, amount), query_ts=query_ts)
        yield Query(ranges=(region, ("order_id", 40, 79)),
                    projection=("order_id", "amount"), query_ts=query_ts)
        yield Query(ranges=(region, ("order_id", 20, 159)), query_ts=query_ts)
    for low in (0, 55, 120):
        yield Query(ranges=(("order_id", low, low + 30),), query_ts=query_ts)
        yield Query(equalities=(("order_id", low + 3),), query_ts=query_ts)


def watch(table):
    """Record each shard's plan and tags as ``table.query`` makes them
    (instance attributes over the shard's own methods)."""
    seen = {}
    for shard_id, shard in enumerate(table.shards):
        def plan_query(query, binding, _inner=shard.plan_query, _id=shard_id):
            plan = _inner(query, binding)
            seen.setdefault(_id, {})["plan"] = plan
            return plan

        def query_tagged(query, binding, _inner=shard._query_tagged, _id=shard_id):
            tags = _inner(query, binding)
            seen.setdefault(_id, {})["tags"] = sorted(tags)
            return tags

        shard.plan_query = plan_query
        shard._query_tagged = query_tagged
    return seen


def unwatch(table):
    for shard in table.shards:
        del shard.plan_query
        del shard._query_tagged


def bound(plan):
    """What a query's values bind into a plan."""
    return (
        plan.equality_values, plan.sort_values, plan.sort_lower,
        plan.sort_upper, plan.entry_residuals, plan.record_checks,
    )


def check(table, twin, query, reached, encodes):
    seen, twin_seen = watch(table), watch(twin)
    try:
        encodes.clear()
        rows = table.query(query)
        encoded = sum(encodes.values())
        twin_rows = twin.query(query)
    finally:
        unwatch(table)
        unwatch(twin)
    assert rows == twin_rows, query
    assert set(seen) == set(twin_seen), query
    parts, variants, picked = [], set(), set()
    for shard_id, got in seen.items():
        shard = table.shards[shard_id]
        plan, expected = got["plan"], reference_plan(shard, query)
        assert plan.explain() == expected.explain(), (shard_id, query)
        assert bound(plan) == bound(expected), (shard_id, query)
        if plan.mode == "scan":
            definition = shard.indexes.get(plan.index_name).index.definition
            assert plan.scan_bounds == compute_scan_bounds(definition, RangeScanQuery(
                plan.equality_values, plan.sort_lower, plan.sort_upper,
            )), (shard_id, query)
            variants.add((plan.index_name, plan.index_only))
        tags = reference_tagged(shard, query)
        assert got["tags"] == tags == twin_seen[shard_id]["tags"], (shard_id, query)
        parts.append(tags)
        picked.add((plan.index_name, plan.index_only))
    reached[query.shape].append(picked)
    assert encoded <= len(variants), query
    assert rows == [row for _, _, row in ShardedTable._merge_tagged(parts)], query


def check_all(table, twin, snapshot, reached, encodes):
    for query in queries(None):
        check(table, twin, query, reached, encodes)
    for query in queries(snapshot):
        check(table, twin, query, reached, encodes)
    templates = table.shards[0].indexes.plan_templates
    assert all(s.indexes.plan_templates is templates for s in table.shards)


def pump(*tables):
    for t in tables:
        while t.migration_step(budget=64)["phase"] != "done":
            pass


def apply(tables, rows, ticks=1):
    for t in tables:
        t.ingest(rows)
        for _ in range(ticks):
            t.tick()


@pytest.fixture
def encodes(monkeypatch):
    """Counts ``compute_scan_bounds`` calls the planner makes."""
    counts = Counter()

    def counting(definition, query, _inner=compute_scan_bounds):
        counts["encode"] += 1
        return _inner(definition, query)

    monkeypatch.setattr(plan_module, "compute_scan_bounds", counting)
    return counts


def test_one_binding_per_scatter_matches_per_shard_planning(encodes):
    table, twin = make_table("smart"), make_table("baseline")
    both = (table, twin)
    for start in range(0, KEYS, 40):
        apply(both, [row(k) for k in range(start, start + 40)])
    far = [k for k in range(FAR_KEY, FAR_KEY + 100)
           if table.shard_of_key((k,)) == STRETCHED_SHARD][:6]
    apply(both, [row(k) for k in far])
    snapshot = min(shard.clock.snapshot_ts for shard in table.shards)
    moved = [k for k in range(KEYS) if table.shard_of_key((k,)) == MOVED_SHARD]
    apply(both, [row(k, region_shift=1, generation=1) for k in moved], ticks=2)
    ghosts = {
        shard_id: len(shard.indexes.get("by_region").ghosted)
        for shard_id, shard in enumerate(table.shards)
    }
    assert ghosts[MOVED_SHARD] and not any(
        count for shard_id, count in ghosts.items() if shard_id != MOVED_SHARD
    )
    reached = defaultdict(list)
    check_all(table, twin, snapshot, reached, encodes)

    # Ghosts gate no plan: the projected region query is index-only on
    # every shard, the moved one included, and its full-row twin a
    # fetch-back on every shard.  Within one query, the narrowed region
    # query runs the primary on the stretched shard and by_region
    # index-only elsewhere; its full-row twin the primary there and a
    # by_region fetch-back elsewhere.
    def shape_of(projection, second):
        return next(q for q in queries(None) if q.projection == projection
                    and len(q.ranges) == 2 and q.ranges[1][0] == second).shape

    for projection, plan in ((("order_id", "amount"), ("by_region", True)),
                             (None, ("by_region", False))):
        shape = shape_of(projection, "amount")
        assert reached[shape] and all(
            picked == {plan} for picked in reached[shape]
        ), shape
    assert any(
        {("by_region", True), ("primary", False)} <= picked
        for picked in reached[shape_of(("order_id", "amount"), "order_id")]
    )
    assert any(
        {("by_region", False), ("primary", False)} <= picked
        for picked in reached[shape_of(None, "order_id")]
    )

    split = table.begin_split(0)
    assert twin.begin_split(0)["phase"] == split["phase"]
    apply(both, [row(k, generation=2) for k in range(KEYS, KEYS + 24)])
    check_all(table, twin, snapshot, reached, encodes)
    pump(table, twin)

    successors = sorted(set(table.live_shard_ids()) - {1, 2, 3})
    merge = table.begin_merge(*successors)
    assert twin.begin_merge(*successors)["phase"] == merge["phase"]
    apply(both, [row(k, generation=3) for k in range(0, KEYS, 9)])
    check_all(table, twin, snapshot, reached, encodes)
    pump(table, twin)
    check_all(table, twin, snapshot, reached, encodes)
