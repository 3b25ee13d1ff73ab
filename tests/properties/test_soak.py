"""Long deterministic soak: every feature under one sustained workload.

Drives a shard (with a secondary index) for 150 groom cycles of the IoT
update workload, while exercising purge/load churn, a mid-run crash and
recovery, and the shard's own MVCC retention horizon, which trails the
snapshot by ``TIME_TRAVEL_WINDOW_CYCLES`` and so starts collecting
versions once the run passes that many cycles -- cross-checking a
dictionary oracle the whole way.  This is the closest the suite gets to a
production burn-in.
"""

import random
from typing import Dict, Tuple

import pytest

from repro.core.definition import ColumnSpec
from repro.planner import Query
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.schema import IndexSpec, TableSchema
from repro.workloads.generator import IoTUpdateWorkload

DEVICES = 16
CYCLES = 150
RECORDS_PER_CYCLE = 60


def make_shard() -> WildfireShard:
    schema = TableSchema(
        name="soak",
        columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
        primary_key=("device", "msg"),
        sharding_key=("device",),
        partition_key=("msg",),
    )
    return WildfireShard(
        schema,
        IndexSpec(("device",), ("msg",), ("reading",)),
        config=ShardConfig(
            post_groom_every=7,
            secondary_indexes={
                "by_reading": IndexSpec(
                    equality_columns=("reading",),
                ),
            },
        ),
    )


@pytest.mark.slow
def test_soak_150_cycles():
    shard = make_shard()
    workload = IoTUpdateWorkload(RECORDS_PER_CYCLE, update_percent=25, seed=17)
    rng = random.Random(99)
    oracle: Dict[Tuple[int, int], int] = {}  # pk -> newest groomed reading
    pending: Dict[Tuple[int, int], int] = {}  # committed, not yet groomed

    total_levels = shard.index.config.levels.total_levels
    for cycle in range(1, CYCLES + 1):
        keys = workload.next_cycle()
        rows = []
        for k in keys:
            pk = (k % DEVICES, k // DEVICES)
            reading = rng.randrange(10_000)
            rows.append((pk[0], pk[1], reading))
            pending[pk] = reading
        shard.ingest(rows)
        shard.tick()
        oracle.update(pending)
        pending.clear()

        if cycle % 30 == 0:
            # Cache churn: purge everything, then restore.
            shard.index.cache.set_cache_level(-1)
            shard.index.cache.set_cache_level(total_levels - 1)
        if cycle == 75:
            shard.crash_and_recover()

        if cycle % 10 == 0:
            # Spot-check 20 random known keys against the oracle.
            probes = rng.sample(sorted(oracle), min(20, len(oracle)))
            for pk in probes:
                record = shard.point_query((pk[0],), (pk[1],))
                assert record is not None, f"lost {pk} at cycle {cycle}"
                assert record.values[2] == oracle[pk], (
                    f"{pk} at cycle {cycle}: {record.values[2]} != {oracle[pk]}"
                )

    # Final full verification of every key ever written.
    for pk, reading in oracle.items():
        record = shard.point_query((pk[0],), (pk[1],))
        assert record is not None and record.values[2] == reading

    # The secondary answers exactly the oracle's keys at a sample of
    # readings: a stale or moved row fails it.
    for pk in rng.sample(sorted(oracle), 25):
        reading = oracle[pk]
        expected = sorted(
            (device, msg, reading)
            for (device, msg), r in oracle.items() if r == reading
        )
        assert shard.query(Query(equalities=(("reading", reading),))) == expected, (
            f"secondary answer at reading {reading} disagrees with the oracle"
        )

    # Sanity on the machinery actually having run.
    assert shard.index.retention_ts > 0  # the horizon crossed the window
    assert shard.post_groomer.max_psn >= CYCLES // 7
    assert shard.index.indexed_psn == shard.post_groomer.max_psn
    stats = shard.index.stats()
    assert stats.total_runs < 40  # merges and evolve kept the chain bounded
