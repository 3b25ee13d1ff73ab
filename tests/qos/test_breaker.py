"""Circuit breaker state machine on the simulated clock."""

import pytest

from repro.qos import breaker as breaker_module
from repro.qos.breaker import BreakerConfig, BreakerState, CircuitBreaker
from repro.storage.metrics import QosStats
from repro.storage.retry import StorageBrownout, TransientIOError


class SimClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def make_breaker(**overrides):
    config = BreakerConfig(**overrides)
    clock = SimClock()
    stats = QosStats()
    return CircuitBreaker("shared", config, clock, stats), clock, stats


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(open_ns=-1)

    def test_threshold_below_retry_budget(self):
        # The trip threshold must sit below the retry budget so a brownout
        # burst trips the breaker mid-retry-loop (see BreakerConfig doc).
        from repro.storage.retry import MAX_ATTEMPTS

        assert BreakerConfig().failure_threshold < MAX_ATTEMPTS


class TestTripping:
    def test_trips_after_consecutive_failures(self):
        breaker, _clock, stats = make_breaker(failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state() is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state() is BreakerState.OPEN
        assert stats.breaker_opens == 1

    def test_success_resets_failure_count(self):
        breaker, _clock, stats = make_breaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state() is BreakerState.CLOSED
        assert stats.breaker_opens == 0

    def test_open_fails_fast_with_retry_hint(self):
        breaker, clock, stats = make_breaker(failure_threshold=1, open_ns=500)
        clock.now = 100
        breaker.record_failure()
        with pytest.raises(StorageBrownout) as exc_info:
            breaker.check()
        assert exc_info.value.tier == "shared"
        assert exc_info.value.retry_at_ns == 600
        assert isinstance(exc_info.value, TransientIOError)
        assert stats.breaker_fast_fails == 1

    def test_closed_check_is_free(self):
        breaker, _clock, stats = make_breaker()
        breaker.check()
        assert stats.breaker_probes == 0
        assert stats.breaker_fast_fails == 0


class TestRecovery:
    def test_half_open_after_open_window(self):
        breaker, clock, _stats = make_breaker(failure_threshold=1, open_ns=500)
        breaker.record_failure()
        clock.now = 499
        assert breaker.state() is BreakerState.OPEN
        clock.now = 500
        assert breaker.state() is BreakerState.HALF_OPEN

    def test_probe_successes_close(self):
        breaker, clock, stats = make_breaker(
            failure_threshold=1, open_ns=500
        )
        assert breaker_module.PROBE_SUCCESSES == 2
        breaker.record_failure()
        clock.now = 500
        breaker.check()  # probe 1 allowed through
        breaker.record_success()
        assert breaker.state() is BreakerState.HALF_OPEN
        breaker.check()  # probe 2
        breaker.record_success()
        assert breaker.state() is BreakerState.CLOSED
        assert stats.breaker_probes == 2
        assert stats.breaker_closes == 1

    def test_half_open_failure_retrips(self):
        breaker, clock, stats = make_breaker(failure_threshold=1, open_ns=500)
        breaker.record_failure()
        clock.now = 500
        breaker.check()
        breaker.record_failure()
        assert breaker.state() is BreakerState.OPEN
        assert stats.breaker_opens == 2
        # The re-trip restarts the open window from the current clock.
        clock.now = 999
        assert breaker.state() is BreakerState.OPEN
        clock.now = 1_000
        assert breaker.state() is BreakerState.HALF_OPEN

    def test_close_resets_failure_streak(self, monkeypatch):
        monkeypatch.setattr(breaker_module, "PROBE_SUCCESSES", 1)
        breaker, clock, _stats = make_breaker(failure_threshold=2, open_ns=100)
        breaker.record_failure()
        breaker.record_failure()
        clock.now = 100
        breaker.check()
        breaker.record_success()
        assert breaker.state() is BreakerState.CLOSED
        # A single post-recovery failure must not re-trip a 2-threshold
        # breaker: the closing reset the consecutive-failure streak.
        breaker.record_failure()
        assert breaker.state() is BreakerState.CLOSED
