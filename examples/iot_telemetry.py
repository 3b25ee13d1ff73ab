"""IoT telemetry -- the paper's motivating workload, end to end.

"An IoT application handling large volumes of sensor readings could use
the device ID as the sharding key, but the date column as the partition
key to speed up time-based analytical queries" (section 2.1).

This example drives a full Wildfire shard: high-rate sensor upserts with
the paper's update model, grooming every cycle, post-grooming every 10
cycles, asynchronous index evolution, and three query patterns on top --
device point reads (OLTP), per-device message-range reads as typed
queries (OLAP on fresh data), and time travel over a sensor's version
history.

Run:  python examples/iot_telemetry.py
"""

import random

from repro.core.definition import ColumnSpec
from repro.planner import Query
from repro.wildfire import IndexSpec, ShardConfig, TableSchema, WildfireShard
from repro.workloads.generator import IoTUpdateWorkload

DEVICES = 32
CYCLES = 40
READINGS_PER_CYCLE = 400


def main() -> None:
    schema = TableSchema(
        name="sensor_readings",
        columns=(
            ColumnSpec("device"),   # sharding key: balances transactions
            ColumnSpec("msg"),      # message number within a device
            ColumnSpec("reading"),  # payload, carried as an included column
        ),
        primary_key=("device", "msg"),
        sharding_key=("device",),
        partition_key=("msg",),     # analytics-friendly organization
    )
    index_spec = IndexSpec(
        equality_columns=("device",),   # paper's I1 shape
        sort_columns=("msg",),
        included_columns=("reading",),
    )
    shard = WildfireShard(
        schema, index_spec, config=ShardConfig(post_groom_every=10)
    )

    # The section 8.4 update model: each cycle updates p% of the previous
    # cycle, 0.1*p% of the last 50, 0.01*p% of the last 100.
    workload = IoTUpdateWorkload(
        records_per_cycle=READINGS_PER_CYCLE, update_percent=10, seed=42
    )
    rng = random.Random(7)

    print(f"ingesting {CYCLES} cycles x {READINGS_PER_CYCLE} readings ...")
    for cycle in range(1, CYCLES + 1):
        keys = workload.next_cycle()
        rows = [(k % DEVICES, k // DEVICES, rng.randrange(10_000)) for k in keys]
        shard.ingest(rows)
        shard.tick()  # groom; post-groom every 10th; evolve; merge

    stats = shard.stats()
    print(f"cycles={stats['cycle']} max_psn={stats['max_psn']} "
          f"indexed_psn={stats['indexed_psn']}")
    print(stats["index"].format_table())

    # -- OLTP: point read of one sensor message ------------------------------
    device = 5
    latest = shard.query(Query(equalities=(("device", device),)))
    msg = latest[-1][1]  # rows come back sorted: device, msg, reading
    record = shard.point_query((device,), (msg,))
    print(f"\npoint read device={device} msg={msg}: reading={record.values[2]}")

    # -- OLAP on fresh data: a message-range read per device ------------------
    for d in (0, DEVICES // 2):
        rows = shard.query(
            Query(equalities=(("device", d),), ranges=(("msg", 0, 200),))
        )
        peak = max(row[2] for row in rows) if rows else 0
        print(f"range device={d} msg in [0, 200]: {len(rows)} rows "
              f"(max reading {peak})")

    # -- index-only aggregation: no record fetches needed ---------------------
    readings = Query(equalities=(("device", device),), projection=("reading",))
    rows = shard.query(readings)
    plan = shard.explain(readings)
    print(f"SUM(reading) over device {device}: {sum(r[0] for r in rows)} "
          f"({len(rows)} messages; plan: {plan['index']} index, "
          f"index-only={plan['index_only']})")

    # -- time travel: update one sensor and read its history ------------------
    target_msg = latest[0][1]
    for value in (111, 222, 333):
        shard.ingest([(device, target_msg, value)])
        shard.run_cycles(10)  # let it groom, post-groom and evolve
    versions = shard.time_travel(
        (device,), (target_msg,), shard.current_snapshot_ts()
    )
    print(f"\nversion chain for device={device} msg={target_msg} "
          f"(newest first):")
    for v in versions[:4]:
        closed = "current" if v.end_ts is None else f"ended at {v.end_ts}"
        print(f"  reading={v.values[2]:>6}  beginTS={v.begin_ts}  {closed}")

    # Reading at an old snapshot returns the old value -- repeatable reads.
    old_ts = versions[-1].begin_ts
    old = shard.point_query((device,), (target_msg,), query_ts=old_ts)
    print(f"read at snapshot {old_ts}: reading={old.values[2]}")

    io = shard.hierarchy.stats.snapshot()
    print("\nsimulated I/O by tier:")
    for tier, t in sorted(io.items()):
        print(f"  {tier:>7}: {t.reads:>6} reads {t.writes:>6} writes "
              f"{t.sim_ns/1e6:>10.1f} simulated ms")


if __name__ == "__main__":
    main()
