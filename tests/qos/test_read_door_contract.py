"""One failure contract for every cluster read door.

A point -- routed, or keyed (its routing bytes are its lookup key) -- and
a typed query -- routed or scattered -- alone or inside a split's or a
merge's double-read window, fail and degrade alike:

* a shard whose retries run out is named in a ``PartialResultError``,
  with the serving epoch and what the other shards answered, never a
  bare ``TransientIOError``;
* a browned-out shard (its breaker open) that is not a fresh-write holder
  of an open window answers from its degraded snapshot pin: the answer
  it gave when the breaker opened;
* a browned-out fresh-write holder does not degrade (its snapshot could
  miss cut-over writes): it is named in a ``PartialResultError`` and no
  degraded read is counted;
* an AS-OF read below a shard's retention horizon is refused with
  ``SnapshotTooOldError`` itself, on every door that takes a ``query_ts``:
  nothing is wrapped, no breaker failure and no degraded read is counted.

The iot table routes on its primary key's equality column (a plain
routed point); the orders table's primary key is its sharding key alone
(a keyed point, and a typed range over it scatters).
"""

from typing import Callable, Dict, NamedTuple, Optional

import pytest

from repro.core.definition import ColumnSpec
from repro.core.query import SnapshotTooOldError
from repro.faults.plan import FaultPlan
from repro.faults.storage import FaultyTier
from repro.planner import Query
from repro.qos.admission import QosConfig
from repro.qos.breaker import BreakerConfig, BreakerState
from repro.qos.errors import PartialResultError
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import IOStats
from repro.wildfire.clock import compose_begin_ts
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import TIME_TRAVEL_WINDOW_CYCLES, ShardConfig
from repro.wildfire.schema import IndexSpec, TableSchema

DEVICES = 16
MSGS = 3
ORDERS = 40

# Never sheds; the breaker trips only when a test trips it (a give-up's
# few failures stay far below the threshold) and then stays open.
QOS = QosConfig(
    rate_per_sim_s=1e12,
    burst=1e6,
    breaker=BreakerConfig(failure_threshold=100, open_ns=10**15),
    release_after=1,
)

SHAPES = {
    "iot": (
        TableSchema(
            name="iot",
            columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
            primary_key=("device", "msg"),
            sharding_key=("device",),
            partition_key=("msg",),
        ),
        IndexSpec(("device",), ("msg",), ("reading",)),
        [(d, m, d * 10 + m) for d in range(DEVICES) for m in range(MSGS)],
    ),
    "orders": (
        TableSchema(
            name="orders",
            columns=(ColumnSpec("order"), ColumnSpec("amount")),
            primary_key=("order",),
            sharding_key=("order",),
        ),
        IndexSpec(sort_columns=("order",), included_columns=("amount",)),
        [(k, k * 7) for k in range(ORDERS)],
    ),
}


class Door(NamedTuple):
    shape: str
    window: Optional[str]  # "split" / "merge": asked inside that window
    ask: Callable  # table -> comparable answer
    key: Optional[tuple]  # the sharding values it routes by (None: scatters)


def point(key):
    """A point answer, comparable: the record's values (or None)."""
    def ask(table):
        record = table.point_query(*key)
        return None if record is None else record.values
    return ask


def typed(query):
    return lambda table: table.query(query)


ROUTED_POINT = point(((3,), (1,)))
ROUTED_TYPED = typed(Query(equalities=(("device", 3),)))
DOORS: Dict[str, Door] = {
    "routed-point": Door("iot", None, ROUTED_POINT, (3,)),
    "keyed-point": Door("orders", None, point(((), (11,))), (11,)),
    "routed-typed": Door("iot", None, ROUTED_TYPED, (3,)),
    "scattered-typed": Door(
        "orders", None, typed(Query(ranges=(("order", 0, ORDERS - 1),))), None
    ),
    "split-window-point": Door("iot", "split", ROUTED_POINT, (3,)),
    "split-window-typed": Door("iot", "split", ROUTED_TYPED, (3,)),
    "merge-window-point": Door("iot", "merge", ROUTED_POINT, (3,)),
    "merge-window-typed": Door("iot", "merge", ROUTED_TYPED, (3,)),
}
WINDOW_DOORS = {name: door for name, door in DOORS.items() if door.window}


def open_door(door: Door):
    """The door's table, loaded and groomed, parked inside its window if
    it has one: ``(table, tiers by shard id)``."""
    tiers = {}

    def hierarchy(shard_id):
        stats = IOStats()
        tiers[shard_id] = FaultyTier(
            FaultPlan(seed=shard_id), run_prefix=door.shape, stats=stats
        )
        return StorageHierarchy(shared=tiers[shard_id], stats=stats)

    schema, spec, rows = SHAPES[door.shape]
    table = ShardedTable(
        schema, spec, num_shards=2, config=ShardConfig(post_groom_every=2),
        qos=QOS, hierarchy_factory=hierarchy,
    )
    table.ingest(rows)
    table.run_cycles(4)
    holder = table.shard_of_key(door.key) if door.key else None
    if door.window == "split":
        table.begin_split(holder)
    elif door.window == "merge":
        left, right = table.split_shard(holder)["successors"]
        table.run_cycles(4)
        table.begin_merge(left, right)
    return table, tiers


def holders(table, door: Door):
    """``(non-fresh holders, fresh-write holders)`` the door reads."""
    shard_map = table.maps.current
    if door.key is None:
        return list(shard_map.scatter_shards()), []
    key_hash = table.key_hash(door.key)
    route = shard_map.route_of(key_hash)
    fresh = route.fresh_write_shards()
    read = route.read_shards(key_hash)
    return [s for s in read if s not in fresh], [s for s in read if s in fresh]


def give_up(table, tiers, shard_id):
    """Every read of the shard's runs goes to shared storage, which is out:
    each one exhausts its retries."""
    shard = table.shards[shard_id]
    with shard.index.pin_snapshot() as pin:
        for run in pin.runs:
            run.drop_decode_cache()
    shard.hierarchy.crash_local_tiers()
    shard.catalog.forget_decoded()
    tiers[shard_id].set_outage(True)


def trip(table, shard_id):
    breaker = table.breaker(shard_id)
    for _ in range(breaker.config.failure_threshold):
        breaker.record_failure()
    assert breaker.state() is BreakerState.OPEN


def as_partial(answer):
    """An answer as ``PartialResultError.partial`` carries it (a point's
    record by its values, as the doors here answer)."""
    if isinstance(answer, list):
        return tuple(answer)
    return () if answer is None else (answer,)


def partial_of(error):
    return tuple(getattr(item, "values", item) for item in error.partial)


@pytest.mark.parametrize("name", DOORS)
def test_retries_exhausted_name_the_shard_with_the_partial_answer(name):
    door = DOORS[name]
    table, tiers = open_door(door)
    healthy = door.ask(table)
    assert healthy
    victim = holders(table, door)[0][0]
    give_up(table, tiers, victim)
    with pytest.raises(PartialResultError) as raised:
        door.ask(table)
    error = raised.value
    assert error.failed_shards == (victim,)
    assert error.epoch == table.routing_epoch()
    if door.key is None:
        # The other shard's rows ride along.
        survivors = tuple(
            row for row in healthy if table.shard_of_key(row[:1]) != victim
        )
        assert survivors and partial_of(error) == survivors
    else:
        # The victim holds every row of the key: a window's fresh-write
        # holder has groomed nothing yet.
        assert error.partial == ()
    assert table.breaker(victim).state() is BreakerState.CLOSED
    assert table.qos_stats().degraded_reads == 0


@pytest.mark.parametrize("name", DOORS)
def test_an_open_breaker_on_a_non_fresh_shard_answers_from_its_pin(name):
    door = DOORS[name]
    table, _ = open_door(door)
    healthy = door.ask(table)
    victim = holders(table, door)[0][0]
    trip(table, victim)
    assert door.ask(table) == healthy
    assert table.shards[victim].degraded_pin is not None
    assert table.qos_stats().degraded_reads >= 1


@pytest.mark.parametrize("name", WINDOW_DOORS)
def test_a_browned_out_fresh_holder_is_named_not_degraded(name):
    door = WINDOW_DOORS[name]
    table, _ = open_door(door)
    healthy = door.ask(table)
    (fresh,) = holders(table, door)[1]
    trip(table, fresh)
    with pytest.raises(PartialResultError) as raised:
        door.ask(table)
    error = raised.value
    assert error.failed_shards == (fresh,)
    assert error.epoch == table.routing_epoch()
    # The source that held the key answered authoritatively.
    assert partial_of(error) == as_partial(healthy)
    assert table.qos_stats().degraded_reads == 0
    assert table.shards[fresh].degraded_pin is None


def test_a_degraded_shard_plans_typed_queries_on_its_primary_alone():
    """Secondaries are not pinned, so no secondary plan or ghost vouch
    runs against a browned-out shard's pin: it plans on the primary --
    index-only where the primary covers the projection -- and answers
    what the secondary plan answered; a query only a secondary can serve
    names the shard instead."""
    schema, spec, rows = SHAPES["iot"]
    table = ShardedTable(
        schema, spec, num_shards=2, qos=QOS, config=ShardConfig(
            post_groom_every=2,
            secondary_indexes={"by_reading": IndexSpec(sort_columns=("reading",))},
        ),
    )
    table.ingest(rows)
    table.run_cycles(4)
    victim = table.shard_of_key((3,))
    shard = table.shards[victim]
    plans = []
    plan_query = shard.plan_query
    shard.plan_query = lambda *args: plans.append(plan_query(*args)) or plans[-1]

    narrow = Query(equalities=(("device", 3),), ranges=(("reading", 31, 31),),
                   projection=("msg", "reading"))
    live = table.query(narrow)
    assert live == [(1, 31)] and plans[-1].index_name == "by_reading"
    trip(table, victim)
    assert table.query(narrow) == live
    assert plans[-1].index_name == "primary" and plans[-1].index_only
    assert shard.degraded_pin is not None

    with pytest.raises(PartialResultError) as raised:
        table.query(Query(ranges=(("reading", 31, 31),)))
    assert raised.value.failed_shards == (victim,)


def aged(shape):
    """The shape's 2-shard table after ``TIME_TRAVEL_WINDOW_CYCLES`` + 2
    grooms on every shard, and a ``query_ts`` below both horizons (each
    shard's first groom is older than its horizon)."""
    schema, spec, rows = SHAPES[shape]
    table = ShardedTable(
        schema, spec, num_shards=2, config=ShardConfig(post_groom_every=2),
        qos=QOS,
    )
    for _ in range(TIME_TRAVEL_WINDOW_CYCLES + 2):
        table.ingest(rows)
        table.tick()
    horizon = min(shard.index.retention_ts for shard in table.shards)
    assert horizon > compose_begin_ts(1, 0)
    return table, compose_begin_ts(1, 0)


BELOW = {
    "routed-point": ("iot", lambda table, ts: table.point_query((3,), (1,), ts)),
    "keyed-point": ("orders", lambda table, ts: table.point_query((), (11,), ts)),
    "routed-typed": ("iot", lambda table, ts: table.query(
        Query(equalities=(("device", 3),), query_ts=ts))),
    "scattered-typed": ("orders", lambda table, ts: table.query(
        Query(ranges=(("order", 0, ORDERS - 1),), query_ts=ts))),
}
SHARD_DOORS = {
    "point_query": lambda shard, ts: shard.point_query((3,), (1,), ts),
    "query": lambda shard, ts: shard.query(
        Query(equalities=(("device", 3),), query_ts=ts)),
    "index_lookup": lambda shard, ts: shard.index_lookup((3,), (1,), ts),
    "time_travel": lambda shard, ts: shard.time_travel((3,), (1,), ts),
}


@pytest.mark.parametrize("name", BELOW)
def test_a_read_below_the_horizon_is_refused_unwrapped(name):
    """Merges collect versions below a shard's retention horizon, so an
    AS-OF read there is refused with ``SnapshotTooOldError`` itself -- not
    a ``PartialResultError`` naming the shard, not a breaker failure, not
    a degraded read -- on a healthy shard and on one behind an open
    breaker alike; at the horizon it answers."""
    shape, ask = BELOW[name]
    table, below = aged(shape)
    with pytest.raises(SnapshotTooOldError):
        ask(table, below)
    assert table.qos_stats().degraded_reads == 0
    for shard_id in table.live_shard_ids():
        assert table.breaker(shard_id)._consecutive_failures == 0
        assert table.breaker(shard_id).state() is BreakerState.CLOSED
    horizon = max(shard.index.retention_ts for shard in table.shards)
    assert ask(table, horizon)  # the horizon itself is readable
    for shard_id in table.live_shard_ids():
        trip(table, shard_id)
    with pytest.raises(SnapshotTooOldError):
        ask(table, below)
    assert table.qos_stats().degraded_reads == 0
    assert any(shard.degraded_pin is not None for shard in table.shards)


@pytest.mark.parametrize("door", SHARD_DOORS)
def test_every_shard_door_refuses_below_the_horizon(door):
    table, below = aged("iot")
    shard = table.shards[table.shard_of_key((3,))]
    with pytest.raises(SnapshotTooOldError):
        SHARD_DOORS[door](shard, below)
    assert SHARD_DOORS[door](shard, shard.index.retention_ts)


@pytest.mark.parametrize("door", SHARD_DOORS)
def test_every_shard_door_refuses_a_horizon_raised_during_its_read(door):
    """``query_ts`` passes the door's check, then two ticks raise the
    horizon past it before the read pins its runs (their merges may have
    collected the versions it asks for): the door refuses after reading."""
    table, _below = aged("iot")
    shard = table.shards[table.shard_of_key((3,))]
    as_of, rows = shard.index.retention_ts, SHAPES["iot"][2]
    lifecycle = shard.index.lifecycle
    pin, ticked = lifecycle.pin, []

    def tick_then_pin():
        if not ticked:
            ticked.append(True)
            for _ in range(2):
                table.ingest(rows)
                table.tick()
            assert shard.index.retention_ts > as_of
        return pin()

    lifecycle.pin = tick_then_pin
    try:
        with pytest.raises(SnapshotTooOldError):
            SHARD_DOORS[door](shard, as_of)
    finally:
        del lifecycle.pin
    assert ticked
