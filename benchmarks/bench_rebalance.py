"""Ablation A16: the full rebalance round trip under closed-loop load.

The A14 bench split synchronously between two traffic phases; this one
exercises the ISSUE 10 machinery end to end: the hottest shard is split
through the **budgeted pump** (:meth:`begin_split` + ``migration_step``
slices interleaved with client traffic), served split for a phase, then
fused back through the pumped **merge** (:meth:`begin_merge` + the same
``migration_step``) -- five traffic phases total, with the reorganization
*in progress* during two of them.  A final arm hands the decisions to
:class:`~repro.wildfire.rebalance.RebalancePolicy` and lets its
hysteresis drive the same round trip.

Asserted per arm:

* **zero query errors, misses, wrong answers, or partials in every
  phase** -- including the two phases served mid-copy through the
  migrating/merging double-read windows;
* the routing epoch advanced exactly four times (two cutovers, two
  final publishes), three shards retired (source + both successors),
  and the live count is back where it started;
* the whole run replays decision-for-decision from its seed.

Every persisted number is simulated-ns or a ledger counter -- no wall
clock anywhere -- so ``BENCH_rebalance.json`` is byte-stable and CI
diffs it against the committed artifact (same full-size run everywhere,
like A13/A14/A15).
"""

from repro.wildfire.rebalance import RebalanceConfig, RebalancePolicy

from closed_loop import ClosedLoopDriver, DriverReport, make_iot_table, run_phase
from harness import ExperimentResult, Series, report

SEED = 16
KEYSPACE = 1_000_000
CLIENTS = 2_000
WARM_DEVICES = 1_024
WARM_MSGS = 2
OPS_PER_PHASE = 1_500
MAINT_EVERY = 250  # ops between maintenance rounds
PUMP_CHUNK = 100  # ops of traffic between pump steps
PUMP_BUDGET = 512  # entries per migration_step slice
SHARD_COUNTS = (1, 2, 4)
DAEMONS = 2
REPLAY_ARM = 2  # shard count of the arm that is run twice


def run_pumped(driver, step):
    """Interleave traffic chunks with pump slices until the pump lands.

    Returns ``(report, final_summary, pump_steps)``: clients keep
    getting answers while the copy advances one budgeted slice at a
    time -- the step-pump invariant is that every slice leaves the
    shards in a state any concurrent query can serve from.
    """
    reports = []
    steps = 0
    while True:
        reports.append(driver.run(PUMP_CHUNK))
        summary = step()
        steps += 1
        if summary["phase"] == "done":
            return DriverReport.combine(reports), summary, steps
        assert steps < 10_000, "A16: pump failed to converge"


def run_arm(num_shards: int):
    """Warm, serve, pump a split, serve, pump the merge back, serve."""
    table = make_iot_table(num_shards)
    driver = ClosedLoopDriver(
        table, clients=CLIENTS, keyspace=KEYSPACE, seed=SEED
    )
    driver.warm(WARM_DEVICES, msgs_per_device=WARM_MSGS)
    table.run_cycles(4)
    rr = [0]

    before = run_phase(driver, table, OPS_PER_PHASE, DAEMONS, rr, MAINT_EVERY)
    victim = table.shard_of_key((0,))  # the Zipfian head's shard
    table.begin_split(victim)
    during_split, split, split_steps = run_pumped(
        driver, lambda: table.migration_step(PUMP_BUDGET)
    )
    between = run_phase(driver, table, OPS_PER_PHASE, DAEMONS, rr, MAINT_EVERY)
    left, right = split["successors"]
    table.begin_merge(left, right)
    during_merge, merge, merge_steps = run_pumped(
        driver, lambda: table.migration_step(PUMP_BUDGET)
    )
    after = run_phase(driver, table, OPS_PER_PHASE, DAEMONS, rr, MAINT_EVERY)

    phases = {
        "before": before,
        "during_split": during_split,
        "between": between,
        "during_merge": during_merge,
        "after": after,
    }
    pumps = {"split_steps": split_steps, "merge_steps": merge_steps}
    return table, split, merge, phases, pumps


def run_policy_arm():
    """The same round trip, decided by RebalancePolicy's hysteresis."""
    table = make_iot_table(1)
    driver = ClosedLoopDriver(
        table, clients=CLIENTS, keyspace=KEYSPACE, seed=SEED
    )
    driver.warm(WARM_DEVICES, msgs_per_device=WARM_MSGS)
    table.run_cycles(4)
    rr = [0]
    policy = RebalancePolicy(
        table,
        RebalanceConfig(
            split_entry_high_water=WARM_DEVICES,  # the warm set is "hot"
            merge_entry_low_water=0,  # nothing merges in this stage
            split_after=3,
            cooldown_evaluations=2,
        ),
    )

    def serve(ops):
        """:func:`run_phase`, with a policy evaluation after every round."""
        reports = []
        for done in range(0, ops, MAINT_EVERY):
            chunk = min(MAINT_EVERY, ops - done)
            reports.append(run_phase(driver, table, chunk, DAEMONS, rr, chunk))
            policy.step()
        return DriverReport.combine(reports)

    hot_phase = serve(OPS_PER_PHASE)
    assert policy.stats.splits == 1, "A16 policy: the hot shard must split"
    # Stage two: declare the successors cold (generous low water) and let
    # sustained coldness fuse them back.
    policy.config = RebalanceConfig(
        split_entry_high_water=10_000_000,
        merge_entry_low_water=10_000_000,
        merge_after=3,
        cooldown_evaluations=2,
    )
    cold_phase = serve(OPS_PER_PHASE)
    assert policy.stats.merges == 1, "A16 policy: coldness must merge back"
    return table, policy, hot_phase, cold_phase


def _assert_clean(label: str, report: DriverReport) -> None:
    assert report.errors == 0, f"A16 {label}: transient errors leaked"
    assert report.partials == 0, f"A16 {label}: partial results leaked"
    assert report.shed == 0, f"A16 {label}: nothing should shed without qos"
    assert report.misses == 0, f"A16 {label}: a warm key went missing"
    assert report.wrong == 0, f"A16 {label}: a warm key answered wrongly"
    assert report.hits > 0, f"A16 {label}: no traffic reached warm keys"


def test_rebalance_closed_loop():
    qps = Series("qps after the round trip")
    p99 = Series("post-merge p99 sim-us")
    metrics = {}

    for num_shards in SHARD_COUNTS:
        table, split, merge, phases, pumps = run_arm(num_shards)

        for label, phase in phases.items():
            _assert_clean(f"s{num_shards} {label}", phase)
        # The round trip really happened, online: four epoch publishes,
        # three shards retired, live count back where it started.
        assert split["phase"] == "done" and merge["phase"] == "done"
        assert table.routing_epoch() == 4
        assert len(table.stats()["retired_shards"]) == 3
        assert len(table.live_shard_ids()) == num_shards
        assert split["copied_entries"] > 0
        assert merge["copied_entries"] > 0
        assert pumps["split_steps"] > 1, "A16: the split must take slices"
        # The Zipfian head survived both moves with its payload intact.
        head = table.point_query((0,), (1,))
        assert head is not None and head.values == (0, 1, 1)
        # Zero epoch hazards across the four publishes: at quiescence no
        # shard's lifecycle still parks a run, and every retired run was
        # reclaimed.
        for shard in table.shards:
            for shard_index in shard.indexes.all():
                assert shard_index.index.lifecycle.retired_backlog() == 0
            epochs = shard.hierarchy.stats.epochs
            assert epochs.runs_retired == epochs.runs_reclaimed

        arm = f"s{num_shards}"
        qps.add(num_shards, round(phases["after"].qps, 3))
        p99.add(num_shards, phases["after"].latency_ns(99) / 1e3)
        for label, phase in phases.items():
            metrics[f"{arm}_qps_{label}"] = round(phase.qps, 3)
            metrics[f"{arm}_p99_ns_{label}"] = phase.latency_ns(99)
        metrics[f"{arm}_split_steps"] = float(pumps["split_steps"])
        metrics[f"{arm}_merge_steps"] = float(pumps["merge_steps"])
        metrics[f"{arm}_split_entries"] = float(split["copied_entries"])
        metrics[f"{arm}_merge_entries"] = float(merge["copied_entries"])

    # The policy-driven arm: hysteresis decides, traffic stays clean.
    table, policy, hot_phase, cold_phase = run_policy_arm()
    _assert_clean("policy hot", hot_phase)
    _assert_clean("policy cold", cold_phase)
    assert table.routing_epoch() == 4
    assert [d.action for d in policy.decisions] == ["split", "merge"]
    metrics["policy_evaluations"] = float(policy.stats.evaluations)
    metrics["policy_qps_hot"] = round(hot_phase.qps, 3)
    metrics["policy_qps_cold"] = round(cold_phase.qps, 3)

    # Replay determinism: the same arm twice, byte-for-byte -- latency
    # tuples, both pump summaries, everything.
    _, split_a, merge_a, phases_a, pumps_a = run_arm(REPLAY_ARM)
    _, split_b, merge_b, phases_b, pumps_b = run_arm(REPLAY_ARM)
    assert split_a == split_b and merge_a == merge_b
    assert phases_a == phases_b and pumps_a == pumps_b

    result = ExperimentResult(
        figure="Ablation A16",
        title="Pumped split/merge round trip under closed-loop load",
        x_label="shards (before and after)",
        y_label="qps / p99 (simulated)",
        series=[qps, p99],
        notes=(
            f"seed {SEED}: {CLIENTS} closed-loop clients, Zipfian(0.99) "
            f"over {KEYSPACE} devices; the hottest shard splits through "
            f"{PUMP_BUDGET}-entry pump slices interleaved with traffic, "
            "serves split, then merges back the same way -- zero errors, "
            "misses, or partials in any phase, plus a policy-driven arm"
        ),
        metrics=metrics,
    )
    report(result, "rebalance")
