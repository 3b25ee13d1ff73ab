"""Pin balance on error exits: a read door that fails mid-query still
releases its version pin.

Every holder of a pin releases it in a ``finally`` or explicitly (the
executor's exits, ``SnapshotPin.release``, the shard copy stream); there
is no finalizer behind them.  A door that leaked its pin on an exception
would keep its version -- and every run it covers -- alive for good.

Each door runs on a shard whose runs are all purged to a ``FaultyTier``.
The door's first shared-storage read first retires the run it is reading
(unlinked and handed to the lifecycle, as a concurrent merge or evolve
would) and then fails: with a ``TransientIOError`` give-up from the tier,
or with a ``SimulatedCrash`` (a ``BaseException``, which no ``except
Exception`` may swallow).  Afterwards the pins balance, one version is
live, and the retired run -- deferred while the query held it -- is freed.
"""

import pytest

from repro.core.definition import ColumnSpec
from repro.core.entry import Zone
from repro.core.query import MAX_QUERY_TS, ReconcileStrategy
from repro.faults.errors import SimulatedCrash, TransientIOError
from repro.faults.plan import FaultPlan
from repro.faults.storage import FaultyTier
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import IOStats
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.schema import IndexSpec, TableSchema

DEVICES = 4
MSGS_PER_ROUND = 12
ROUNDS = 5  # post-grooms after rounds 2 and 4, round 5 stays groomed

FAILURES = {"transient-giveup": TransientIOError, "simulated-crash": SimulatedCrash}

INDEX_DOORS = {
    "lookup": lambda shard: shard.index.lookup((1,), (3,)),
    "scan": lambda shard: shard.index.scan((1,)),
    "scan-set": lambda shard: shard.index.executor.scan(
        (1,), strategy=ReconcileStrategy.SET
    ),
    "scan-priority_queue": lambda shard: shard.index.executor.scan(
        (1,), strategy=ReconcileStrategy.PRIORITY_QUEUE
    ),
    "batch_lookup": lambda shard: shard.index.batch_lookup(
        [(d, 3) for d in range(DEVICES)], MAX_QUERY_TS
    ),
    "post_groomed_batch_lookup": lambda shard: shard.index.post_groomed_batch_lookup(
        [list(range(DEVICES)), [3] * DEVICES], MAX_QUERY_TS
    ),
}

DEGRADED_DOORS = {
    "degraded_point_query": lambda shard: shard.degraded_point_query((1,), (3,)),
    "degraded_range_query": lambda shard: shard.degraded_range_query((1,)),
}


def purged_shard():
    """A shard with runs in both zones, every one purged to the tier."""
    stats = IOStats()
    tier = FaultyTier(FaultPlan(seed=0), run_prefix="pins", stats=stats)
    shard = WildfireShard(
        TableSchema(
            name="pins",
            columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
            primary_key=("device", "msg"),
            sharding_key=("device",),
            partition_key=("msg",),
        ),
        IndexSpec(("device",), ("msg",), ("reading",)),
        hierarchy=StorageHierarchy(shared=tier, stats=stats),
        config=ShardConfig(post_groom_every=2),
    )
    for r in range(ROUNDS):
        shard.ingest([
            (d, m, r) for d in range(DEVICES) for m in range(MSGS_PER_ROUND)
        ])
        shard.tick()
    counts = shard.index.stats()
    assert counts.groomed_run_count >= 1 and counts.post_groomed_run_count >= 1
    shard.index.cache.set_cache_level(-1)
    return shard, tier


def fail_next_shared_read(shard, tier, failure):
    """Arm the tier: its next read retires the run it reads, then fails.

    Returns ``(retired, freed, backlog)``: the run retired, the runs the
    lifecycle has freed, and the retired backlog seen right after the
    retire (1: the failing query's own pin deferred the free).
    """
    index = shard.index
    retired, freed, backlog = [], [], []
    real_read = tier.read

    def read(block_id):
        if retired:  # the retry loop's later attempts read for real
            return real_read(block_id)
        run_id = block_id.namespace
        for zone in (Zone.GROOMED, Zone.POST_GROOMED):
            if run_id in index.run_lists[zone]:
                index.run_lists[zone].remove(run_id)
        index.lifecycle.retire(run_id, lambda: freed.append(run_id))
        retired.append(run_id)
        backlog.append(index.lifecycle.retired_backlog())
        if failure is SimulatedCrash:
            raise SimulatedCrash("pin-balance", 1)
        tier.set_outage(True)
        return real_read(block_id)

    tier.read = read
    return retired, freed, backlog


@pytest.mark.parametrize("failure", FAILURES.values(), ids=FAILURES.keys())
@pytest.mark.parametrize("door", INDEX_DOORS.values(), ids=INDEX_DOORS.keys())
def test_a_failed_query_releases_its_pin(door, failure):
    shard, tier = purged_shard()
    lifecycle, epochs = shard.index.lifecycle, shard.hierarchy.stats.epochs
    retired, freed, backlog = fail_next_shared_read(shard, tier, failure)
    with pytest.raises(failure):
        door(shard)
    assert retired and backlog == [1]
    assert epochs.pins_entered == epochs.pins_exited
    assert lifecycle.live_version_count() == 1
    assert lifecycle.retired_backlog() == 0 and freed == retired


@pytest.mark.parametrize("failure", FAILURES.values(), ids=FAILURES.keys())
@pytest.mark.parametrize("door", DEGRADED_DOORS.values(), ids=DEGRADED_DOORS.keys())
def test_a_failed_degraded_query_leaves_only_the_degraded_pin(door, failure):
    shard, tier = purged_shard()
    lifecycle, epochs = shard.index.lifecycle, shard.hierarchy.stats.epochs
    shard.enter_degraded_mode()
    retired, freed, backlog = fail_next_shared_read(shard, tier, failure)
    with pytest.raises(failure):
        door(shard)
    assert retired and backlog == [1]
    # The door takes no pin of its own; the degraded-mode pin still holds
    # the retired run until the mode ends.
    assert epochs.pins_entered == epochs.pins_exited + 1 and freed == []
    shard.exit_degraded_mode()
    assert epochs.pins_entered == epochs.pins_exited
    assert lifecycle.live_version_count() == 1
    assert lifecycle.retired_backlog() == 0 and freed == retired
