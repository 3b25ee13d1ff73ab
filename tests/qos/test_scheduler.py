"""Maintenance backpressure: the hysteresis gate and its counters."""

from repro.qos.admission import AdmissionController, QosConfig
from repro.qos.breaker import BreakerConfig, BreakerState, CircuitBreaker
from repro.qos import scheduler as scheduler_module
from repro.qos.scheduler import DaemonScheduler
from repro.storage.metrics import FaultStats, QosStats


def make_scheduler(**overrides):
    defaults = dict(
        rate_per_sim_s=1_000_000.0,
        burst=2.0,
        max_queue_ns=100_000,
        deadline_ns=100_000,
        high_water_ns=3_000,
        low_water_ns=1_000,
        release_after=2,
    )
    defaults.update(overrides)
    config = QosConfig(**defaults)
    stats = QosStats()
    admission = AdmissionController(config, stats=stats)
    return DaemonScheduler(config, stats=stats, admission=admission), admission, stats


class TestBacklogPressure:
    def test_calm_allows(self):
        scheduler, _admission, stats = make_scheduler()
        assert scheduler.allow_maintenance() is True
        assert stats.maintenance_cycles == 1
        assert stats.maintenance_throttled == 0

    def test_backlog_throttles(self):
        scheduler, admission, stats = make_scheduler()
        for _ in range(6):  # 4 booked ops -> ~5 tokens of projected wait
            admission.admit()
        assert admission.backlog_ns() >= 3_000
        assert scheduler.allow_maintenance() is False
        assert stats.throttle_events == 1
        assert stats.throttle_releases == 0  # still throttled
        assert stats.maintenance_throttled == 1

    def test_hysteresis_requires_sustained_calm(self):
        scheduler, admission, stats = make_scheduler()
        for _ in range(6):
            admission.admit()
        assert scheduler.allow_maintenance() is False
        # Backlog drains (arrival clock catches up) ...
        admission.advance(10_000)
        # ... but one calm check is not enough (release_after=2).
        assert scheduler.allow_maintenance() is False
        assert scheduler.allow_maintenance() is True
        assert stats.throttle_releases == 1  # no longer throttled
        # Ledger identity: every decision was counted exactly once.
        assert stats.maintenance_cycles + stats.maintenance_throttled == 3

    def test_pressure_resets_calm_streak(self):
        scheduler, admission, _stats = make_scheduler()
        for _ in range(6):
            admission.admit()
        assert scheduler.allow_maintenance() is False
        admission.advance(10_000)
        assert scheduler.allow_maintenance() is False  # calm 1/2
        for _ in range(6):  # pressure returns before the release
            admission.admit()
        assert scheduler.allow_maintenance() is False  # streak reset
        admission.advance(20_000)
        assert scheduler.allow_maintenance() is False  # calm 1/2 again
        assert scheduler.allow_maintenance() is True


class TestBreakerPressure:
    def test_open_breaker_throttles(self):
        scheduler, _admission, stats = make_scheduler()
        clock_now = [0]
        breaker = CircuitBreaker(
            "shared",
            BreakerConfig(failure_threshold=1, open_ns=1_000),
            clock=lambda: clock_now[0],
            stats=stats,
        )
        scheduler.watch_breaker(breaker)
        assert scheduler.allow_maintenance() is True
        breaker.record_failure()
        assert breaker.state() is BreakerState.OPEN
        assert scheduler.allow_maintenance() is False
        # Breaker recovers (half-open counts as not-open) -> hysteresis.
        clock_now[0] = 1_000
        assert scheduler.allow_maintenance() is False
        assert scheduler.allow_maintenance() is True


class TestRetryPressure:
    def test_fresh_retries_throttle(self):
        scheduler, _admission, stats = make_scheduler()
        faults = FaultStats()
        scheduler.watch_faults(faults)
        assert scheduler.allow_maintenance() is True
        faults.read_retries += 2
        assert scheduler.allow_maintenance() is False
        assert stats.throttle_events == 1
        # No *new* retries since the last check: calm, releases after 2.
        assert scheduler.allow_maintenance() is False
        assert scheduler.allow_maintenance() is True

    def test_threshold_filters_noise(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "RETRY_DELTA_THRESHOLD", 3)
        scheduler, _admission, _stats = make_scheduler()
        faults = FaultStats()
        scheduler.watch_faults(faults)
        faults.read_retries += 2  # below threshold: not pressure
        assert scheduler.allow_maintenance() is True
        faults.read_retries += 3
        assert scheduler.allow_maintenance() is False
