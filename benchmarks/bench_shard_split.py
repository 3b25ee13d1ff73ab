"""Ablation A14: online shard split under closed-loop Zipfian load (ISSUE 8).

A :class:`~closed_loop.ClosedLoopDriver` pushes thousands of
simulated clients -- Zipfian-skewed over a million-device keyspace, 85/5/10
point/range/ingest mix -- through a grid of ``{1, 2, 4, 8}`` shards x
``{1, 2, 4}`` maintenance daemons.  Each arm runs two equal phases of
traffic with an **online split of the hottest shard between them**: the
shard serving device 0 (the Zipfian head) is drained into two successors
by :meth:`~repro.wildfire.cluster.ShardedTable.split_shard` while the
workload's keys keep answering.

The demonstration the ISSUE asks for, asserted per arm:

* **zero query errors across the split** -- no misses on warm keys, no
  wrong payloads, no transient errors, no partial results, in either
  phase;
* the routing epoch advanced exactly twice (cutover publish + final
  publish) and the source shard retired;
* the whole run replays decision-for-decision from its seed (one arm is
  run twice and the two :class:`~closed_loop.DriverReport`\\ s,
  latency tuples included, must be equal).

Every persisted number is simulated-ns or a ledger counter -- no
wall-clock anywhere -- so ``BENCH_shard_split.json`` is byte-stable and
CI diffs it against the committed artifact (same full-size run
everywhere, like A13).
"""

from closed_loop import ClosedLoopDriver, DriverReport, make_iot_table, run_phase
from harness import ExperimentResult, Series, report

SEED = 14
KEYSPACE = 1_000_000
CLIENTS = 2_000
WARM_DEVICES = 1_024
WARM_MSGS = 2
OPS_PER_PHASE = 2_500
MAINT_EVERY = 250  # ops between maintenance rounds
SHARD_COUNTS = (1, 2, 4, 8)
DAEMON_COUNTS = (1, 2, 4)
REPLAY_ARM = (2, 2)  # (shards, daemons) arm that is run twice


def run_arm(num_shards: int, daemons: int):
    """Warm, serve, split the hottest shard mid-run, serve again."""
    table = make_iot_table(num_shards)
    driver = ClosedLoopDriver(
        table,
        clients=CLIENTS,
        keyspace=KEYSPACE,
        seed=SEED,
    )
    driver.warm(WARM_DEVICES, msgs_per_device=WARM_MSGS)
    table.run_cycles(4)  # groom the warm set down before timing anything
    rr = [0]

    before = run_phase(driver, table, OPS_PER_PHASE, daemons, rr, MAINT_EVERY)
    victim = table.shard_of_key((0,))  # the Zipfian head's shard
    split = table.split_shard(victim)
    after = run_phase(driver, table, OPS_PER_PHASE, daemons, rr, MAINT_EVERY)

    return table, split, before, after


def _assert_clean(label: str, report: DriverReport) -> None:
    assert report.errors == 0, f"A14 {label}: transient errors leaked"
    assert report.partials == 0, f"A14 {label}: partial results leaked"
    assert report.shed == 0, f"A14 {label}: nothing should shed without qos"
    assert report.misses == 0, f"A14 {label}: a warm key went missing"
    assert report.wrong == 0, f"A14 {label}: a warm key answered wrongly"
    assert report.hits > 0, f"A14 {label}: no traffic reached warm keys"


def test_shard_split_closed_loop():
    qps_series = {d: Series(f"qps (daemons={d})") for d in DAEMON_COUNTS}
    p99_series = {d: Series(f"post-split p99 sim-us (daemons={d})") for d in DAEMON_COUNTS}
    metrics = {}

    for num_shards in SHARD_COUNTS:
        for daemons in DAEMON_COUNTS:
            table, split, before, after = run_arm(num_shards, daemons)

            _assert_clean(f"{num_shards}x{daemons} pre-split", before)
            _assert_clean(f"{num_shards}x{daemons} post-split", after)
            # The split really happened, online: two epoch publishes
            # (cutover + final), the source retired, two successors live.
            assert split["phase"] == "done"
            assert table.routing_epoch() == 2
            assert len(table.stats()["retired_shards"]) == 1
            assert len(table.live_shard_ids()) == num_shards + 1
            assert split["copied_entries"] > 0
            # The Zipfian head survived the move with its payload intact.
            head = table.point_query((0,), (1,))
            assert head is not None and head.values == (0, 1, 1)

            arm = f"s{num_shards}_d{daemons}"
            qps_series[daemons].add(num_shards, round(after.qps, 3))
            p99_series[daemons].add(num_shards, after.latency_ns(99) / 1e3)
            metrics[f"{arm}_qps_before"] = round(before.qps, 3)
            metrics[f"{arm}_qps_after"] = round(after.qps, 3)
            metrics[f"{arm}_p50_ns_before"] = before.latency_ns(50)
            metrics[f"{arm}_p50_ns_after"] = after.latency_ns(50)
            metrics[f"{arm}_p99_ns_before"] = before.latency_ns(99)
            metrics[f"{arm}_p99_ns_after"] = after.latency_ns(99)
            metrics[f"{arm}_hits"] = float(before.hits + after.hits)
            metrics[f"{arm}_copied_entries"] = float(split["copied_entries"])
            metrics[f"{arm}_quiesce_grooms"] = float(split["quiesce_grooms"])

    # Replay determinism: the same arm twice, byte-for-byte -- latency
    # tuples, split summary, everything.
    _, split_a, before_a, after_a = run_arm(*REPLAY_ARM)
    _, split_b, before_b, after_b = run_arm(*REPLAY_ARM)
    assert split_a == split_b
    assert before_a == before_b
    assert after_a == after_b

    result = ExperimentResult(
        figure="Ablation A14",
        title="Online shard split under closed-loop Zipfian load",
        x_label="shards (pre-split)",
        y_label="qps / p99 (simulated)",
        series=[qps_series[d] for d in DAEMON_COUNTS]
        + [p99_series[d] for d in DAEMON_COUNTS],
        notes=(
            f"seed {SEED}: {CLIENTS} closed-loop clients, Zipfian(0.99) "
            f"over {KEYSPACE} devices, 85/5/10 point/range/ingest; the "
            "hottest shard splits online between two equal traffic "
            "phases with zero query errors, misses, or partials"
        ),
        metrics=metrics,
    )
    report(result, "shard_split")
