"""The routed point path against the one it replaced, answer and ledger.

``ShardedTable.point_query`` hands a key it routed by down as the lookup
key when the primary-index key is exactly the sharding key, and crosses
admission, the routing-epoch pin, the breaker, the shard and the
executor in one call each.  ``tests/reference_point_path.py`` keeps the
path from before.  Twin tables load the same rows through the same
ticks; every point is then asked of one twin through ``point_query``
and of the other through the reference, and after every call the
answers (or the refusals: type and message) and every ledger must be
equal: the cluster's qos counters and routing-epoch pins, and per shard
the version-set pins (refs and unrefs), decode probes, tier reads and
simulated ns, per-intent cache paths and cache bypasses.

Three table shapes: the sharding key as the whole primary key (the key
is handed down), a strict subset of a two-column primary key (the routed
bytes are not the lookup key) and a primary index with an equality
column (its key carries a hash prefix).  Five regimes: warm, purged to
shared storage, AS-OF a snapshot before the last updates, a shard
degraded behind an open breaker and a pumped split's double-read window
-- plus refused keys and an admission bucket run dry in each.
"""

import pytest

from repro.core.definition import ColumnSpec
from repro.qos.admission import QosConfig
from repro.qos.breaker import BreakerConfig
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import ShardConfig
from repro.wildfire.schema import IndexSpec, TableSchema

from tests.conftest import assert_lifecycles_quiescent, intent_snapshot, map_refs
from tests.reference_point_path import reference_point_query

DEVICES = 24
MSGS = 3
ROUNDS = 6
QOS = QosConfig(
    rate_per_sim_s=50_000.0, burst=8.0, max_queue_ns=200_000, deadline_ns=1_000_000,
    breaker=BreakerConfig(failure_threshold=3, open_ns=1_000_000_000),
)

SHAPES = {  # shape -> (primary key, primary index); the sharding key is the device
    # The one sort column is the sharding key: the routed bytes are the key.
    "keyed": (
        ("device",),
        IndexSpec(sort_columns=("device",), included_columns=("msg", "reading")),
    ),
    # The sharding key is a strict subset of a two-column sort key.
    "subset": (
        ("device", "msg"),
        IndexSpec(sort_columns=("device", "msg"), included_columns=("reading",)),
    ),
    # An equality column: the lookup key carries a hash prefix.
    "hashed": (("device", "msg"), IndexSpec(("device",), ("msg",), ("reading",))),
}


def make_table(shape):
    primary_key, spec = SHAPES[shape]
    schema = TableSchema(
        name=f"points-{shape}",
        columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
        primary_key=primary_key,
        sharding_key=("device",),
    )
    return ShardedTable(
        schema, spec, num_shards=3, config=ShardConfig(post_groom_every=2), qos=QOS
    )


def rows_of(shape, round_):
    msgs = range(MSGS) if shape != "keyed" else range(1)
    return [(d, m, 100 * round_ + d) for d in range(DEVICES) for m in msgs
            if (d + round_) % 3 or round_ == 0]


def loaded_twins(shape):
    """Both twins through the same ingests and ticks; the AS-OF snapshot
    is taken before the last two rounds of updates."""
    twins = (make_table(shape), make_table(shape))
    snapshot = None
    for round_ in range(ROUNDS):
        for table in twins:
            table.advance_clock(10_000_000)
            table.ingest(rows_of(shape, round_))
            table.tick()
        if round_ == ROUNDS - 3:
            snapshot = min(shard.clock.snapshot_ts for shard in twins[0].shards)
    return twins, snapshot


def ledger(table):
    shards = []
    for shard in table.shards:
        stats = shard.hierarchy.stats
        shards.append((
            stats.epochs.snapshot(), stats.decode.snapshot(), stats.snapshot(),
            stats.total_sim_ns, intent_snapshot(stats), stats.faults.snapshot(),
            shard.degraded_pin is not None,
        ))
    epochs = range(table.routing_epoch() + 1)
    return (
        table.qos_stats().snapshot(), table.epoch_stats().snapshot(),
        [map_refs(table.maps, epoch) for epoch in epochs], shards,
    )


def outcome(door, table, key, query_ts):
    try:
        record = door(table, *key, query_ts)
    except Exception as error:
        return type(error), str(error)
    return None if record is None else (record.values, record.begin_ts)


def new_door(table, equality_values, sort_values, query_ts):
    return table.point_query(equality_values, sort_values, query_ts)


def keys_of(shape):
    """Present, absent and refused ``(equality, sort)`` keys of a shape."""
    width = 1 if shape == "keyed" else 2
    present = [(d,) if width == 1 else (d, d % MSGS) for d in range(0, DEVICES, 2)]
    absent = [(DEVICES + 5,) * width, (-1,) * width]
    refused = [(True,) * width, ("7",) * width, (7.5,) * width, ()]
    refused += [(1,) * (width + 1), (1,) * (width - 1)]  # too long, too short
    keys = present + absent + refused
    if shape == "hashed":  # the device is the equality column
        return [(key[:1], key[1:]) for key in keys] + [((), (1, 1)), ((1, 1), ())]
    return [((), key) for key in keys] + [((1,), key) for key in present[:2]]


def check(twins, shape, query_ts=None, advance=True):
    table, twin = twins
    for key in keys_of(shape):
        if advance:
            for t in twins:
                t.advance_clock(100_000)
        got = outcome(new_door, table, key, query_ts)
        want = outcome(reference_point_query, twin, key, query_ts)
        assert got == want, (shape, key, query_ts)
        assert ledger(table) == ledger(twin), (shape, key, query_ts)
        assert map_refs(table.maps, table.routing_epoch()) == 0


@pytest.mark.parametrize("shape", SHAPES)
def test_every_regime_answers_and_counts_as_before(shape):
    twins, snapshot = loaded_twins(shape)
    table, twin = twins

    check(twins, shape)  # warm
    check(twins, shape, query_ts=snapshot)  # AS-OF
    check(twins, shape, advance=False)  # the bucket runs dry: queues, sheds
    assert table.qos_stats().queue_sim_ns > 0 and table.qos_stats().shed > 0

    for t in twins:  # a shard degraded behind its open breaker
        for _ in range(QOS.breaker.failure_threshold):
            t.breaker(1).record_failure()
    check(twins, shape)
    assert table.qos_stats().degraded_reads > 0
    for t in twins:  # the open window lapses: half-open probes, then closed
        t.advance_clock(QOS.breaker.open_ns)
    check(twins, shape)

    for t in twins:  # purged: every lookup reads shared storage
        for shard in t.shards:
            for shard_index in shard.indexes.all():
                shard_index.index.cache.set_cache_level(-1)
    check(twins, shape)
    check(twins, shape, query_ts=snapshot)
    assert table.qos_stats().deadline_misses > 0  # shared reads run late

    assert table.begin_split(0)["phase"] == twin.begin_split(0)["phase"]
    for t in twins:  # fresh writes land on the successors
        t.ingest(rows_of(shape, ROUNDS))
    check(twins, shape)
    check(twins, shape, query_ts=snapshot)
    while table.migration_step(budget=16)["phase"] != "done":
        twin.migration_step(budget=16)
    twin.migration_step(budget=16)
    assert table.routing_epoch() == twin.routing_epoch() == 2
    check(twins, shape)
    for t in twins:
        assert_lifecycles_quiescent(t)
