"""Ablation A13: overload protection under a seeded brownout + spike (ISSUE 7).

A closed-loop driver pushes the same four-phase schedule through two
cluster arms:

* **protected** -- ``ShardedTable`` with the QoS stack (token-bucket
  admission, deadline shedding, maintenance backpressure, per-shard
  circuit breaker with degraded snapshot reads);
* **unprotected** -- the identical table with ``qos=None``.

The schedule is reproducible from one integer: ``SEED`` drives the
shard fault plans and the :class:`BrownoutWindow` storm on the victim
shard's shared tier.  Phases:

1. **warm**    -- ingest, groom, and serve a baseline working set;
2. **calm**    -- paced queries (the arrival clock advances between
   requests), everything admitted;
3. **storm**   -- the brownout window opens and maintenance trips the
   victim's breaker; then a burst of back-to-back queries arrives with
   no arrival-clock advance.  Protected: excess load sheds with typed
   errors, victim-shard queries degrade to the pinned snapshot, and the
   scheduler throttles maintenance.  Unprotected: maintenance errors
   crash through the serving loop (a real deployment's dead groomer
   daemon);
4. **recover** -- storage heals; idle simulated time lapses the breaker
   window, half-open probes re-run the requeued grooming, the breaker
   closes, and backpressure releases.

Every number asserted or persisted is a deterministic simulated-clock or
ledger counter -- there is no wall-clock measurement anywhere in this
module, so the checked-in ``BENCH_overload.json`` is byte-stable and CI
diffs it against the committed artifact.  The fixture is small enough to
run at full size everywhere (no ``UMZI_BENCH_SMOKE`` scaling, which is
what keeps the artifact identical between CI and local runs).
"""

from repro.core.definition import ColumnSpec
from repro.faults.plan import BrownoutWindow, FaultPlan
from repro.faults.storage import FaultyTier
from repro.qos.admission import QosConfig
from repro.qos.breaker import BreakerConfig, BreakerState
from repro.qos.errors import PartialResultError, QosError
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import IOStats
from repro.storage.retry import TransientIOError
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import ShardConfig
from repro.wildfire.schema import IndexSpec, TableSchema

from harness import ExperimentResult, Series, report

SEED = 11
NUM_SHARDS = 2
DEVICES = 24
CALM_QUERIES = 40
SPIKE_QUERIES = 60
CALM_SPACING_NS = 100_000  # arrival-clock advance between calm queries
MAX_RECOVERY_ROUNDS = 150
PHASES = ("warm", "calm", "storm", "recover")


def protected_qos() -> QosConfig:
    """Sized so calm traffic sails through and the spike sheds.

    The bucket refills one token per 50 us of arrival time; calm pacing
    (100 us/query) keeps it full, while the spike books queue slots until
    the wait tops ``max_queue_ns``.  ``open_ns`` exceeds the retry loop's
    accumulated backoff (1+2+4 simulated ms) so a tripping operation sees
    a solidly-open breaker, and ``high_water_ns`` sits below the maximum
    bookable queue so the spike itself also throttles maintenance.
    """
    return QosConfig(
        rate_per_sim_s=20_000.0,
        burst=16.0,
        max_queue_ns=400_000,
        deadline_ns=50_000_000,
        breaker=BreakerConfig(failure_threshold=3, open_ns=8_000_000),
        high_water_ns=200_000,
        low_water_ns=50_000,
        release_after=2,
    )


def make_table(protected: bool):
    schema = TableSchema(
        name="iot",
        columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
        primary_key=("device", "msg"),
        sharding_key=("device",),
        partition_key=("msg",),
    )
    tiers = {}

    def factory(shard_id):
        stats = IOStats()
        tier = FaultyTier(
            FaultPlan(seed=SEED + shard_id), run_prefix="iot", stats=stats
        )
        tiers[shard_id] = tier
        return StorageHierarchy(shared=tier, stats=stats)

    table = ShardedTable(
        schema,
        IndexSpec(("device",), ("msg",), ("reading",)),
        num_shards=NUM_SHARDS,
        config=ShardConfig(post_groom_every=2),
        qos=protected_qos() if protected else None,
        hierarchy_factory=factory,
    )
    return table, tiers


def run_arm(protected: bool):
    """Drive the four-phase schedule; returns (phase records, summary)."""
    table, tiers = make_table(protected)
    phase_stats = {p: {"ok": 0, "shed": 0, "errors": 0} for p in PHASES}
    queue_waits = []

    def query(phase, device):
        qos = table.qos_stats() if protected else None
        queued_before = qos.queue_sim_ns if qos else 0
        try:
            record = table.point_query((device,), (1,))
            assert record.values == (device, 1, device * 10), (
                f"A13 {phase}: wrong answer for device {device}"
            )
            phase_stats[phase]["ok"] += 1
            if qos:
                queue_waits.append(qos.queue_sim_ns - queued_before)
        except PartialResultError:  # the shard could not answer: an error
            phase_stats[phase]["errors"] += 1
        except QosError:
            phase_stats[phase]["shed"] += 1

    def tick(phase):
        try:
            table.tick()
        except TransientIOError:
            phase_stats[phase]["errors"] += 1

    # Phase 1: warm.  Ingest the working set and groom it down.
    table.ingest([(d, 1, d * 10) for d in range(DEVICES)])
    table.run_cycles(2)
    table.advance_clock(10_000_000)
    for d in range(DEVICES):
        table.advance_clock(CALM_SPACING_NS)
        query("warm", d)

    # Phase 2: calm.  Paced traffic; the bucket refills between arrivals.
    for i in range(CALM_QUERIES):
        table.advance_clock(CALM_SPACING_NS)
        query("calm", i % DEVICES)

    # Phase 3: storm.  The seeded brownout window opens on the victim's
    # shared tier; fresh rows force a groom onto the browning tier.
    victim = table.shard_of_row((0, 0, 0))
    victim_device = next(
        d for d in range(DEVICES) if table.shard_of_row((d, 0, 0)) == victim
    )
    tiers[victim].start_brownout(BrownoutWindow.generate(SEED, length_ops=30))
    table.advance_clock(CALM_SPACING_NS)
    table.ingest([(victim_device, 99, 999)])
    tick("storm")  # groom hits the brownout; protected arm trips the breaker
    tick("storm")
    for i in range(SPIKE_QUERIES):  # back-to-back burst: no advance_clock
        query("storm", i % DEVICES)
    tick("storm")  # mid-spike maintenance: protected arm throttles

    # Phase 4: recover.  Idle simulated time lapses the breaker window;
    # a trickle of fresh rows keeps maintenance touching shared storage,
    # so half-open probes ride the groom path (burning off the brownout
    # window's tail) until the breaker closes and the committed log
    # drains (bounded, seeded round count).
    rounds = 0
    while rounds < MAX_RECOVERY_ROUNDS:
        rounds += 1
        table.advance_clock(protected_qos().breaker.open_ns)
        table.ingest([(victim_device, 100 + rounds, rounds)])
        tick("recover")
        breaker = table.breaker(victim)
        breaker_closed = breaker is None or breaker.state() is BreakerState.CLOSED
        if breaker_closed and table.shards[victim].committed_log.pending_rows() == 0:
            break
    for d in range(DEVICES):
        table.advance_clock(CALM_SPACING_NS)
        query("recover", d)
    table.advance_clock(CALM_SPACING_NS)
    assert table.point_query((victim_device,), (99,)).values == (
        victim_device, 99, 999,
    ), "A13: the storm-time ingest must land after recovery"

    summary = {
        "recovery_rounds": rounds,
        "sim_now_ns": table.sim_now(),
        "qos": table.qos_stats().snapshot() if protected else None,
        "queue_waits": tuple(queue_waits),
        "victim_degraded_after": table.shards[victim].degraded_pin is not None,
    }
    return phase_stats, summary


def _p99(values):
    ordered = sorted(values)
    return float(ordered[(99 * (len(ordered) - 1)) // 100]) if ordered else 0.0


def test_overload_protection():
    protected_phases, protected = run_arm(protected=True)
    unprotected_phases, unprotected = run_arm(protected=False)

    # Determinism: the whole storm replays from the seed, decision for
    # decision (admit/shed/breaker transitions and the clock they left).
    replay_phases, replay = run_arm(protected=True)
    assert replay_phases == protected_phases
    assert replay == protected

    qos = protected["qos"]

    # Protected arm: every admitted query answered correctly -- zero
    # errors in every phase -- while the spike sheds typed errors.
    assert all(p["errors"] == 0 for p in protected_phases.values())
    assert protected_phases["storm"]["shed"] > 0
    assert qos.shed == sum(p["shed"] for p in protected_phases.values())
    assert qos.deadline_misses == 0  # bounded: the shed path fires first
    # Degraded reads served the victim shard while its breaker was open.
    assert qos.degraded_reads > 0
    assert qos.breaker_opens >= 1
    assert qos.breaker_closes >= 1
    assert not protected["victim_degraded_after"]
    # Maintenance provably dropped under pressure, then recovered.
    assert qos.maintenance_throttled > 0
    assert qos.maintenance_cycles > 0
    assert qos.throttle_releases >= 1
    # Calm traffic never queued; the spike's booked waits are bounded by
    # the admission cap.
    spike_waits = [w for w in protected["queue_waits"] if w > 0]
    assert spike_waits and max(spike_waits) <= protected_qos().max_queue_ns

    # Unprotected arm: the same schedule crashes maintenance through the
    # serving loop (nonzero errors) and nothing sheds or degrades.
    assert unprotected_phases["storm"]["errors"] > 0
    assert all(p["shed"] == 0 for p in unprotected_phases.values())
    assert unprotected["qos"] is None

    goodput = Series("protected ok")
    goodput_un = Series("unprotected ok")
    shed = Series("protected shed")
    errors_un = Series("unprotected errors")
    for phase in PHASES:
        goodput.add(phase, float(protected_phases[phase]["ok"]))
        goodput_un.add(phase, float(unprotected_phases[phase]["ok"]))
        shed.add(phase, float(protected_phases[phase]["shed"]))
        errors_un.add(phase, float(unprotected_phases[phase]["errors"]))

    offered = qos.offered
    result = ExperimentResult(
        figure="Ablation A13",
        title="Overload protection: protected vs unprotected under brownout+spike",
        x_label="phase",
        y_label="queries (count)",
        series=[goodput, goodput_un, shed, errors_un],
        notes=(
            f"seed {SEED}: seeded brownout window on the victim shard's "
            "shared tier plus a back-to-back query burst; protected arm "
            "sheds typed errors and serves degraded snapshot reads, "
            "unprotected arm surfaces maintenance crashes"
        ),
        metrics={
            "protected_offered": float(offered),
            "protected_admitted": float(qos.admitted),
            "protected_shed_rate": qos.shed / offered,
            "protected_p99_queue_sim_ns": _p99(protected["queue_waits"]),
            "protected_deadline_misses": float(qos.deadline_misses),
            "protected_degraded_reads": float(qos.degraded_reads),
            "protected_breaker_opens": float(qos.breaker_opens),
            "protected_breaker_closes": float(qos.breaker_closes),
            "protected_maintenance_cycles": float(qos.maintenance_cycles),
            "protected_maintenance_throttled": float(qos.maintenance_throttled),
            "protected_recovery_rounds": float(protected["recovery_rounds"]),
            "protected_sim_now_ns": float(protected["sim_now_ns"]),
            "unprotected_errors": float(
                sum(p["errors"] for p in unprotected_phases.values())
            ),
            "unprotected_recovery_rounds": float(
                unprotected["recovery_rounds"]
            ),
        },
    )
    report(result, "overload")
