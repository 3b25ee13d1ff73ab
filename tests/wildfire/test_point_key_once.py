"""A routed point encodes its key once, and refuses and answers as before.

When a table's primary-index key is exactly its sharding key (no hash
column, the sharding key as the whole sort key), the bytes
``ShardedTable._serve`` encodes to route a point are handed down as the
lookup key: ``WildfireShard.point_query`` -> ``UmziIndex.lookup`` ->
``QueryExecutor.lookup`` encodes nothing.  The refusals stay those of the
path that encoded twice (a mistyped value is the router's ``PlanError``,
a key of the wrong width the index's ``QueryError``), and a table whose
routed bytes are not its lookup key -- a sharding key that is a strict
subset of the primary key, or a primary index with an equality column --
still encodes its own lookup key and answers like a 1-shard baseline.
"""

import pytest

from repro.core import query as query_module
from repro.core.definition import ColumnSpec, ColumnType
from repro.core.query import QueryError
from repro.planner.plan import PlanError
from repro.qos.admission import QosConfig
from repro.wildfire import cluster as cluster_module
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import ShardConfig
from repro.wildfire.schema import IndexSpec, TableSchema

from tests.reference_point_path import reference_point_query
from tests.conftest import map_refs

ORDERS = 40


def orders_table(num_shards=4):
    schema = TableSchema(
        name="orders",
        columns=(
            ColumnSpec("order_id"),
            ColumnSpec("customer", ColumnType.STRING),
            ColumnSpec("amount"),
        ),
        primary_key=("order_id",),
        sharding_key=("order_id",),
    )
    return ShardedTable(
        schema, IndexSpec(sort_columns=("order_id",)), num_shards=num_shards,
        config=ShardConfig(post_groom_every=2), qos=QosConfig(),
    )


def load_orders(table):
    """Two versions of every even order; returns a snapshot between them."""
    table.ingest([(k, f"c{k % 7}", k) for k in range(ORDERS)])
    table.run_cycles(3)
    between = min(shard.clock.snapshot_ts for shard in table.shards)
    table.ingest([(k, f"c{k % 7}", 1000 + k) for k in range(0, ORDERS, 2)])
    table.run_cycles(3)
    return between


# (key, the exception the path that encoded twice raised, its message)
EXPECTS = "sharding key: column 'order_id' expects int64, got"
REFUSED = [
    ((True,), PlanError, f"{EXPECTS} bool (True)"),
    (("7",), PlanError, f"{EXPECTS} str ('7')"),
    ((7.5,), PlanError, f"{EXPECTS} float (7.5)"),
    ((7, 8), QueryError, "point lookup must bind all 1 sort columns; got 2"),
    ((), QueryError, "point lookup must bind all 1 sort columns; got 0"),
]


@pytest.mark.parametrize(
    "key,error,message", REFUSED, ids=["bool", "str", "fraction", "long", "empty"]
)
def test_a_refused_key_raises_what_it_raised_before(key, error, message):
    table, twin = orders_table(), orders_table()
    for t in (table, twin):
        load_orders(t)
    with pytest.raises(error) as raised:
        table.point_query((), key)
    assert str(raised.value) == message
    with pytest.raises(error) as reference:
        reference_point_query(twin, (), key)
    assert str(reference.value) == message
    assert map_refs(table.maps, table.routing_epoch()) == 0


def test_an_equality_value_on_a_sort_only_index_is_refused_as_before():
    table = orders_table()
    load_orders(table)
    with pytest.raises(QueryError, match="must bind all 0 equality columns; got 1"):
        table.point_query((1,), (7,))


def count_encodes(monkeypatch):
    calls = {"route": 0, "lookup": 0}

    def counted(name, inner):
        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    monkeypatch.setattr(
        cluster_module, "encode_search_key",
        counted("route", cluster_module.encode_search_key),
    )
    monkeypatch.setattr(
        query_module, "encode_point_key",
        counted("lookup", query_module.encode_point_key),
    )
    return calls


def test_the_routed_bytes_are_the_lookup_key(monkeypatch):
    table = orders_table()
    between = load_orders(table)
    calls = count_encodes(monkeypatch)
    assert table.point_query((), (6,)).values == (6, "c6", 1006)
    assert table.point_query((), (6,), between).values == (6, "c6", 6)  # AS-OF
    assert table.point_query((), (7,)).values == (7, "c0", 7)
    assert table.point_query((), (ORDERS + 1,)) is None
    assert calls == {"route": 4, "lookup": 0}


def test_as_of_points_answer_as_before():
    table, twin = orders_table(), orders_table()
    snapshots = [load_orders(t) for t in (table, twin)]
    assert snapshots[0] == snapshots[1]
    for ts in (None, snapshots[0], 0):
        for key in range(-1, ORDERS + 1):
            got = table.point_query((), (key,), ts)
            want = reference_point_query(twin, (), (key,), ts)
            assert got == want, (key, ts)
            if ts is None and 0 <= key < ORDERS:
                assert got.values[2] == (1000 + key if key % 2 == 0 else key)


DEVICE_TABLES = {
    # The sharding key is a strict subset of the two-column primary key:
    # the routed bytes (the device) are not the lookup key.
    "subset": IndexSpec(
        sort_columns=("device", "msg"), included_columns=("reading",)
    ),
    # An equality column: the lookup key starts with its hash.
    "hashed": IndexSpec(("device",), ("msg",), ("reading",)),
}


def device_table(spec, num_shards):
    schema = TableSchema(
        name="devices",
        columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
        primary_key=("device", "msg"),
        sharding_key=("device",),
    )
    table = ShardedTable(
        schema, spec, num_shards=num_shards,
        config=ShardConfig(post_groom_every=2), qos=QosConfig(),
    )
    table.ingest([(d, m, 10 * d + m) for d in range(12) for m in range(4)])
    table.run_cycles(3)
    between = min(shard.clock.snapshot_ts for shard in table.shards)
    table.ingest([(d, m, -d) for d in range(0, 12, 3) for m in range(4)])
    table.run_cycles(3)
    return table, between


@pytest.mark.parametrize("shape", DEVICE_TABLES)
def test_a_table_not_routed_by_its_lookup_key_answers_like_one_shard(
    shape, monkeypatch
):
    spec = DEVICE_TABLES[shape]
    (table, between), (baseline, base_between) = (
        device_table(spec, 4), device_table(spec, 1)
    )
    calls = count_encodes(monkeypatch)
    points = 0
    for ts, base_ts in ((None, None), (between, base_between)):
        for d in range(-1, 13):
            for m in range(5):
                key = ((d,), (m,)) if shape == "hashed" else ((), (d, m))
                got = table.point_query(*key, ts)
                want = baseline.point_query(*key, base_ts)
                # beginTS orders a shard's groom, so only the row must match.
                assert (got and got.values) == (want and want.values), (key, ts)
                if 0 <= d < 12 and m < 4:
                    assert got.values[2] == (10 * d + m if ts or d % 3 else -d)
                points += 2
    assert calls == {"route": points, "lookup": points}
