"""Admission control: token bucket, queueing, sheds, deadlines.

Everything runs on the simulated arrival clock (``advance``), so every
test closes with counter assertions against the QosStats ledger and the
determinism tests replay the exact same decisions from the same schedule.
"""

import pytest

from repro.core.definition import ColumnSpec
from repro.qos.admission import AdmissionController, QosConfig
from repro.qos.errors import DeadlineExceeded, Overloaded
from repro.storage.metrics import QosStats
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.schema import IndexSpec, TableSchema


def make_controller(charged=None, **overrides):
    defaults = dict(
        rate_per_sim_s=1_000_000.0,  # 1 token per simulated us
        burst=4.0,
        max_queue_ns=10_000,
        deadline_ns=50_000,
    )
    defaults.update(overrides)
    config = QosConfig(**defaults)
    stats = QosStats()
    charge = None
    if charged is not None:
        charge = charged.append
    return AdmissionController(config, stats=stats, charge=charge), stats


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            QosConfig(rate_per_sim_s=0)
        with pytest.raises(ValueError):
            QosConfig(burst=0.5)
        with pytest.raises(ValueError):
            QosConfig(deadline_ns=0)

    def test_rate_per_ns(self):
        config = QosConfig(rate_per_sim_s=1_000_000_000.0)
        assert config.rate_per_ns == 1.0


class TestTokenBucket:
    def test_burst_admits_immediately(self):
        controller, stats = make_controller()
        for _ in range(4):
            assert controller.admit() == 0
        assert stats.admitted == 4
        assert stats.queue_sim_ns == 0

    def test_deficit_queues_with_simulated_wait(self):
        charged = []
        controller, stats = make_controller(charged=charged)
        for _ in range(4):
            controller.admit()
        # Bucket empty: the 5th op books one full token of wait (1us).
        assert controller.admit() == 1_000
        assert stats.queue_sim_ns == 1_000
        assert charged == [1_000]
        # The 6th sees the deepened deficit: two tokens of wait.
        assert controller.admit() == 2_000

    def test_advance_refills(self):
        controller, stats = make_controller()
        for _ in range(4):
            controller.admit()
        controller.advance(2_000)  # 2 tokens refilled
        assert controller.admit() == 0
        assert controller.admit() == 0
        assert controller.admit() == 1_000

    def test_refill_caps_at_burst(self):
        controller, _ = make_controller()
        controller.advance(1_000_000_000)
        for _ in range(4):
            assert controller.admit() == 0
        assert controller.admit() == 1_000

    def test_backlog_signal_tracks_deficit(self):
        controller, _ = make_controller()
        assert controller.backlog_ns() == 0
        for _ in range(6):
            controller.admit()
        # Two booked ops deep: the next arrival would wait ~3 tokens.
        assert controller.backlog_ns() == 3_000

    def test_advance_rejects_negative(self):
        controller, _ = make_controller()
        with pytest.raises(ValueError):
            controller.advance(-1)


class TestShedding:
    def test_overloaded_when_queue_full(self):
        controller, stats = make_controller()
        # Burst 4 + 10 queued (max_queue 10us at 1 op/us) fit ...
        for _ in range(14):
            controller.admit()
        # ... the 15th projects an 11us wait > max_queue_ns.
        with pytest.raises(Overloaded) as exc_info:
            controller.admit()
        assert exc_info.value.retry_after_ns == 11_000
        assert stats.admitted == 14
        assert stats.shed == 1
        assert stats.offered == 15

    def test_deadline_shed_before_queue_limit(self):
        # Deadline tighter than the queue bound: DeadlineExceeded wins.
        controller, stats = make_controller(deadline_ns=2_000)
        for _ in range(6):
            controller.admit()
        with pytest.raises(DeadlineExceeded) as exc_info:
            controller.admit()
        assert exc_info.value.projected_ns == 3_000
        assert stats.shed == 1
        assert stats.deadline_misses == 1

    def test_shed_charges_nothing(self):
        charged = []
        controller, stats = make_controller(charged=charged)
        for _ in range(14):
            controller.admit()
        with pytest.raises(Overloaded):
            controller.admit()
        # Only the booked ops' waits were charged; the shed cost nothing.
        assert sum(charged) == stats.queue_sim_ns


class TestDeadlineOnCompletion:
    """An admitted op that completes late counts one ``deadline_misses``:
    its booked wait plus its simulated work (the table's work clock,
    ``ShardedTable.sim_now``) against ``deadline_ns``."""

    @staticmethod
    def purged_table(**overrides):
        """One shard, every run purged: a point lookup reads shared storage."""
        schema = TableSchema(
            name="deadlines",
            columns=(ColumnSpec("k"), ColumnSpec("v")),
            primary_key=("k",),
            sharding_key=("k",),
        )
        table = ShardedTable(
            schema, IndexSpec(sort_columns=("k",), included_columns=("v",)),
            num_shards=1, qos=QosConfig(**overrides),
        )
        table.ingest([(k, 10 * k) for k in range(20)])  # one admitted op
        table.run_cycles(2)
        table.shards[0].index.cache.set_cache_level(-1)
        table.advance_clock(1_000_000_000)  # a full bucket again
        assert table.qos_stats().deadline_misses == 0
        return table

    def work_ns(self):
        """Simulated work of one purged point lookup (every table below
        replays the same operations, so it does the same work)."""
        table = self.purged_table()
        before = table.sim_now()
        assert table.point_query((), (7,)).values == (7, 70)
        work = table.sim_now() - before
        assert work > 0
        return work

    def test_on_time_completion(self):
        table = self.purged_table(deadline_ns=self.work_ns())
        assert table.point_query((), (7,)).values == (7, 70)
        assert table.qos_stats().deadline_misses == 0

    def test_late_completion_counts_once(self):
        table = self.purged_table(deadline_ns=self.work_ns() - 1)
        assert table.point_query((), (7,)).values == (7, 70)
        stats = table.qos_stats()
        assert (stats.admitted, stats.deadline_misses, stats.shed) == (2, 1, 0)

    def test_queueing_counts_against_deadline(self):
        work = self.work_ns()
        # One token per simulated ms and a burst of one: the second
        # lookup is booked 1 ms of wait, which with its work overruns.
        table = self.purged_table(
            rate_per_sim_s=1_000.0, burst=1.0, deadline_ns=work + 500_000
        )
        assert table.point_query((), (7,)).values == (7, 70)
        assert table.qos_stats().deadline_misses == 0
        assert table.point_query((), (7,)).values == (7, 70)
        stats = table.qos_stats()
        assert stats.queue_sim_ns == 1_000_000
        assert (stats.admitted, stats.deadline_misses, stats.shed) == (3, 1, 0)


class TestDeterminism:
    def test_identical_schedules_identical_decisions(self):
        def drive(controller, stats):
            outcomes = []
            for step in range(50):
                if step % 7 == 0:
                    controller.advance(1_500)
                try:
                    outcomes.append(("admit", controller.admit()))
                except Overloaded as exc:
                    outcomes.append(("overloaded", exc.retry_after_ns))
                except DeadlineExceeded as exc:
                    outcomes.append(("deadline", exc.projected_ns))
            return outcomes, stats.snapshot()

        a = drive(*make_controller())
        b = drive(*make_controller())
        assert a == b
